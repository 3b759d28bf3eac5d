//! Count-under-execution oracle for the static cost model.
//!
//! The analyzer (`autocts::preflight::analyze_cost`) and the compiled plan
//! (`ExecPlan::static_cost`) both claim to price a genotype's forward
//! **exactly** — not approximately. Both run the plan's one step walk on
//! the symbolic `cts_nn::Price` backend. This suite holds them to it
//! across randomized accepted genotypes over the full operator set:
//!
//! 1. the plan's static FLOPs / bytes-read / bytes-written /
//!    kernel-call counts must match the `cts_tensor::meter` debug
//!    instrumentation, bit for bit, around a real `try_run`;
//! 2. the analyzer's rollup must agree with the plan's: the analyzer
//!    compiles its own plan from the symbolic spec (fresh operator
//!    instances, zero graph supports), the plan prices the model's;
//! 3. pricing executes no kernel: the meter records nothing while either
//!    side prices;
//! 4. the analyzer's plan-faithful peak-bytes estimate must be `≥` the
//!    arena's observed high-water mark for the same run (soundness),
//!    and its ideal-liveness peak must never exceed the plan-faithful
//!    one.
//!
//! `scripts/check.sh` runs this as part of the tier-1 gate; together
//! with the 100-case proptest below it covers well over the 100
//! randomized genotypes the cost-model acceptance gate requires.

use autocts::preflight::{analyze_cost, arch_spec};
use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_data::{batches_from_windows, build_windows, generate, CtsData, DatasetSpec, SplitWindows};
use cts_ops::full_set;
use cts_tensor::{arena, meter};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Edge slots of the canonical M = 3 derived block.
const SLOTS: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];

thread_local! {
    /// One shared smoke fixture per test thread: dataset synthesis is the
    /// expensive part of each case, and it is identical across cases.
    static FIXTURE: (SearchConfig, DatasetSpec, CtsData, SplitWindows) = {
        let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
        let data = generate(&spec, 11);
        let windows = build_windows(&data, 6, 24);
        let cfg = SearchConfig {
            m: 3,
            b: 2,
            d_model: 8,
            batch_size: 2,
            ..Default::default()
        };
        (cfg, spec, data, windows)
    };
}

/// Sample genotypes over the full Table 1 set until the analyzer accepts
/// one (a handful of draws suffices).
fn accepted_genotype(
    rng: &mut SmallRng,
    cfg: &SearchConfig,
    spec: &DatasetSpec,
    data: &CtsData,
) -> Genotype {
    let ops = full_set();
    for _ in 0..256 {
        let block = BlockGenotype {
            m: 3,
            edges: SLOTS
                .iter()
                .map(|&(f, t)| (f, t, ops[rng.gen_range(0..ops.len())]))
                .collect(),
        };
        let backbone = if rng.gen_range(0..2) == 0 {
            vec![0, 0]
        } else {
            vec![0, 1]
        };
        let genotype = Genotype {
            blocks: vec![block.clone(); cfg.b],
            backbone,
        };
        let arch = arch_spec(cfg, &genotype, spec, &data.graph);
        if cts_verify::validate_genotype(&arch).is_ok() {
            return genotype;
        }
    }
    unreachable!("256 draws from the full set produced no accepted genotype");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Static flops/bytes are **exact** against the instrumented kernel
    /// counters, the analyzer agrees with the compiled plan, and the
    /// predicted peak covers the measured arena high-water mark.
    #[test]
    fn static_cost_is_exact_and_peak_is_sound(seed in 0u64..1_000_000) {
        FIXTURE.with(|(cfg, spec, data, windows)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let genotype = accepted_genotype(&mut rng, cfg, spec, data);
            let batches = batches_from_windows(&windows.train, rng.gen_range(1..4usize));
            let (x, _) = &batches[rng.gen_range(0..batches.len())];
            let batch = x.shape()[0];

            let model =
                DerivedModel::new(&mut rng, cfg, &genotype, spec, &data.graph, &windows.scaler);
            let plan = model.compiled_plan().expect("accepted genotypes compile");

            // The analyzer's rollup from the symbolic spec must agree with
            // the model's compiled plan, and neither prices by running a
            // kernel.
            let arch = arch_spec(cfg, &genotype, spec, &data.graph);
            meter::reset();
            meter::set_enabled(true);
            let static_cost = plan.static_cost(batch);
            let report = analyze_cost(&arch, batch);
            meter::set_enabled(false);
            let pricing = meter::snapshot();
            let at = genotype.to_text();
            prop_assert_eq!(pricing.flops, 0, "pricing ran kernels for {}", at);
            prop_assert_eq!(pricing.kernel_calls, 0, "pricing ran kernels for {}", at);
            let report = report.expect("accepted genotypes price");
            prop_assert_eq!(
                report.total, static_cost,
                "analyzer rollup disagrees with ExecPlan::static_cost for {}",
                genotype.to_text()
            );
            prop_assert!(report.ideal_peak_bytes <= report.peak_bytes);

            // Count-under-execution oracle: run the plan with the kernel
            // meter on and compare bit for bit.
            //
            // Bins are cleared first: a recycled exact-capacity buffer
            // from a previous case (e.g. a dropped batch tensor built
            // via `Tensor::from_vec`) can be served for a smaller
            // request in its size class and charge its full capacity,
            // inflating the gauge past the pow2 class sizes the
            // analyzer prices. Cold takes always allocate exactly the
            // class-rounded capacity, which is the policy under test.
            arena::clear();
            let (live_before, _) = arena::live_stats();
            arena::reset_live_peak();
            meter::reset();
            meter::set_enabled(true);
            let out = plan.try_run(x);
            meter::set_enabled(false);
            let m = meter::snapshot();
            prop_assert!(out.is_ok(), "accepted genotype failed to run: {:?}", out.err());

            prop_assert_eq!(static_cost.flops, m.flops, "flops diverge for {}", genotype.to_text());
            prop_assert_eq!(
                static_cost.bytes_read, m.bytes_read(),
                "bytes read diverge for {}", genotype.to_text()
            );
            prop_assert_eq!(
                static_cost.bytes_written, m.bytes_written(),
                "bytes written diverge for {}", genotype.to_text()
            );
            prop_assert_eq!(
                static_cost.kernel_calls, m.kernel_calls,
                "kernel calls diverge for {}", genotype.to_text()
            );

            // Peak soundness: the plan-faithful estimate must cover the
            // residency this run actually added on top of what was live.
            let (_, peak_live) = arena::live_stats();
            let measured = (peak_live.saturating_sub(live_before) as u64).saturating_mul(4);
            prop_assert!(
                report.peak_bytes >= measured,
                "predicted peak {} B < measured arena high-water {} B for {}",
                report.peak_bytes, measured, genotype.to_text()
            );
        });
    }
}

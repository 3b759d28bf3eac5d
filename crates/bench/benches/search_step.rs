//! Criterion benchmark: cost of one bi-level search step pair (Θ update +
//! w update) on the supernet — the unit behind Table 7's search times.

use criterion::{criterion_group, criterion_main, Criterion};
use cts_autograd::Tape;
use cts_bench::{prepare, ExpContext};
use cts_data::{batches_from_windows, DatasetSpec};
use cts_nn::{Adam, Forecaster, LossKind, Optimizer};
use rand::{rngs::SmallRng, SeedableRng};

fn bench_search_step(c: &mut Criterion) {
    let ctx = ExpContext::smoke();
    let p = prepare(&ctx, &DatasetSpec::metr_la());
    let cfg = ctx.search_config();
    let mut rng = SmallRng::seed_from_u64(0);
    let model = autocts::SupernetModel::new(&mut rng, &cfg, &p.spec, &p.data.graph, &p.windows.scaler);
    let batches = batches_from_windows(&p.windows.train, ctx.batch);
    let (x, y) = batches[0].clone();
    let mut arch_opt = Adam::for_architecture(model.arch_parameters(), cfg.arch_lr, cfg.arch_wd);
    let mut weight_opt = Adam::new(model.weight_parameters(), cfg.weight_lr, cfg.weight_wd);
    let loss_kind = LossKind::MaskedMae { null_value: Some(0.0) };

    // One row per worker count: serial (threads=1, the CTS_NUM_THREADS=1
    // path) against the scoped pool, end-to-end through forward + backward.
    for threads in [1usize, 2, 4] {
        cts_tensor::parallel::set_num_threads(threads);
        c.bench_function(format!("supernet_bilevel_step/threads={threads}"), |b| {
            b.iter(|| {
                // Θ step
                let tape = Tape::new();
                let pred = model.forward(&tape, &tape.constant(x.clone()));
                let loss = loss_kind.compute(&tape, &pred, &y);
                tape.backward_for(&loss, arch_opt.params());
                arch_opt.step();
                // w step
                let tape = Tape::new();
                let pred = model.forward(&tape, &tape.constant(x.clone()));
                let loss = loss_kind.compute(&tape, &pred, &y);
                tape.backward_for(&loss, weight_opt.params());
                weight_opt.step();
            })
        });
    }
    cts_tensor::parallel::set_num_threads(0);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_search_step
}
criterion_main!(benches);

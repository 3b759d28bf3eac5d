//! `serve_bench`: latency benchmark of the concurrent serving front-end.
//!
//! Builds two smoke-scale [`DerivedModel`]s ("autocts-a", "autocts-b"),
//! and for each entry in `SERVE_THREADS` starts a [`ServeFront`]: that
//! many worker threads, each compiling its own bit-identical plan
//! replicas on-thread (plans are `Rc`-based and `!Send`), admitting them
//! through the per-shard registry canary gate (bit parity vs the tape on
//! a probe window), and serving them behind a per-model micro-batcher
//! and a horizon-TTL forecast cache. Each measured round submits one
//! window per stream — streams alternate between the two models — and
//! flushes once; the flush wall-time is the serving latency sample.
//!
//! After measurement the bench **proves** the cache: the same window is
//! served twice and the cached answer must equal a fresh main-thread
//! `try_run` bit for bit (`f32::to_bits`), or the bench exits non-zero.
//! A chaos round then throws admission-level hostility at the front
//! (wrong shape, NaN window, expired deadline, unknown model id) to
//! exercise the typed-error paths end to end.
//!
//! Emits `BENCH_serve.json` (override the directory with
//! `BENCH_OUT_DIR`): one row per thread count with p50/p99 flush
//! latency, compiled and tape milliseconds per window, the
//! tape-vs-compiled `speedup` column, per-row `cache_hit` /
//! `cache_miss` / `cache_evict` deltas, plus every `cts_obs::serve`
//! counter and the per-shard queue-depth high-water marks.
//!
//! Knobs (environment):
//! * `SERVE_THREADS`     — comma-separated worker-thread counts to
//!   bench, one report row each (default `1,4`)
//! * `SERVE_STREAMS`     — concurrent streams per round (default 8)
//! * `SERVE_ROUNDS`      — measured rounds per row (default 200)
//! * `SERVE_BATCH`       — micro-batcher window cap (default = streams)
//! * `SERVE_QUEUE`       — pending-queue bound (default 1024)
//! * `SERVE_CACHE_MB`    — per-model result-cache byte cap in MiB,
//!   0 disables the cache (default 8)
//! * `SERVE_DEADLINE_MS` — per-request deadline budget (default: none)
//! * `SERVE_MISSING_CAP` — per-window missing-fraction cap (default 1.0)
//! * `SERVE_RETRIES`     — solo re-run retries per quarantined request
//!   (default 1)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_autograd::Tape;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_nn::Forecaster;
use cts_obs::Stopwatch;
use cts_ops::OpKind;
use cts_runtime::{
    AdmissionPolicy, ExecPlan, FrontConfig, ServeFront, ShardCanary, ShardFactory, ShardModel,
};
use cts_tensor::Tensor;
use rand::{rngs::SmallRng, SeedableRng};
use std::rc::Rc;
use std::sync::Arc;

/// `(model id, derivation seed)` for the two-model serving catalogue.
/// Derivation is seed-deterministic, so every shard (and the main-thread
/// reference below) compiles bit-identical replicas from these alone.
const MODELS: [(&str, u64); 2] = [("autocts-a", 7), ("autocts-b", 13)];

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// Parse `SERVE_THREADS` as a comma-separated list of worker counts.
fn env_threads() -> Vec<usize> {
    let raw = std::env::var("SERVE_THREADS").unwrap_or_else(|_| "1,4".into());
    let counts: Vec<usize> = raw
        .split(',')
        .filter_map(|t| t.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .collect();
    if counts.is_empty() {
        vec![1, 4]
    } else {
        counts
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn fail(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// The bench genotype: temporal conv, ProbSparse attention, diffusion
/// graph conv — the same mix the verify-space sweep uses.
fn genotype(cfg: &SearchConfig) -> Genotype {
    let block = BlockGenotype {
        m: 3,
        edges: vec![
            (0, 1, OpKind::Gdcc),
            (1, 2, OpKind::InformerT),
            (0, 2, OpKind::Dgcn),
        ],
    };
    Genotype {
        blocks: vec![block.clone(); cfg.b],
        backbone: vec![0, 1],
    }
}

/// Derive one model from its seed. Deterministic: same seed → the same
/// weights, on any thread.
fn derive(seed: u64) -> Result<(Rc<DerivedModel>, Rc<ExecPlan>), String> {
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
    let genotype = genotype(&cfg);
    let mut rng = SmallRng::seed_from_u64(seed);
    let model = Rc::new(DerivedModel::new(
        &mut rng,
        &cfg,
        &genotype,
        &spec,
        &data.graph,
        &windows.scaler,
    ));
    let plan = model.compiled_plan().map_err(|e| e.to_string())?;
    Ok((model, plan))
}

fn tape_forward(model: &DerivedModel, x: &Tensor) -> Tensor {
    let tape = Tape::new();
    let xv = tape.constant(x.clone());
    model.forward(&tape, &xv).value()
}

fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Shard factory: derives both models on the worker thread, canary-gates
/// each replica against its own tape forward (bit parity), installs the
/// tape as the last ladder rung, and prewarms the steady-state batch
/// shape so measured rounds never allocate.
fn factory(probe: Tensor, prewarm_rows: usize) -> ShardFactory {
    Arc::new(move |_shard| {
        let mut out = Vec::with_capacity(MODELS.len());
        for (id, seed) in MODELS {
            let (model, plan) = derive(seed).map_err(cts_runtime::ServeError::Config)?;
            let reference = tape_forward(&model, &probe);
            plan.prewarm(prewarm_rows);
            out.push(ShardModel {
                id: id.into(),
                plan,
                tape_fallback: Some(Box::new(move |x| Some(tape_forward(&model, x)))),
                canary: Some(ShardCanary {
                    probe: probe.clone(),
                    reference,
                    tol: 0.0,
                }),
            });
        }
        Ok(out)
    })
}

/// One measured configuration's report row.
struct Row {
    threads: usize,
    p50: f64,
    p99: f64,
    compiled_ms_per_window: f64,
    speedup: f64,
    cache_hit: u64,
    cache_miss: u64,
    cache_evict: u64,
}

fn main() -> std::io::Result<()> {
    let thread_counts = env_threads();
    let streams = env_usize("SERVE_STREAMS", 8);
    let rounds = env_usize("SERVE_ROUNDS", 200);
    let max_batch = env_usize("SERVE_BATCH", streams);
    let queue_limit = env_usize("SERVE_QUEUE", 1024);
    let cache_mb = env_f64("SERVE_CACHE_MB").unwrap_or(8.0).max(0.0);
    let cache_bytes = (cache_mb * (1 << 20) as f64) as usize;
    let deadline_ms = env_f64("SERVE_DEADLINE_MS");
    let missing_cap = env_f64("SERVE_MISSING_CAP").unwrap_or(1.0) as f32;
    let retries = env_usize("SERVE_RETRIES", 1);
    let out_dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".into());

    // Main-thread reference replicas: the bit-identity oracle for the
    // cache proof, and the tape baseline.
    let spec = DatasetSpec::metr_la().scaled(0.04, 0.015);
    let data = generate(&spec, 11);
    let windows = build_windows(&data, 6, 24);
    let locals: Vec<(Rc<DerivedModel>, Rc<ExecPlan>)> = MODELS
        .iter()
        .map(|&(_, seed)| derive(seed).map_err(fail))
        .collect::<Result<_, _>>()?;

    // A small cycling window pool: repeats across rounds are what makes
    // the result cache earn hits under steady traffic.
    let test_batches = batches_from_windows(&windows.test, 1);
    if test_batches.is_empty() {
        return Err(fail("test split produced no windows"));
    }
    let pool: Vec<Tensor> = test_batches
        .iter()
        .take(16)
        .map(|(x, _)| x.clone())
        .collect();
    let probe = pool[0].clone();

    let admission =
        AdmissionPolicy::new(spec.null_value, missing_cap).map_err(|e| fail(e.to_string()))?;
    let prewarm_rows = max_batch.min(streams).max(1);

    // Tape baseline once — per-window cost of the pre-compile serving
    // loop; every row's speedup is measured against it.
    let tape_rounds = rounds.min(25);
    let tape_sw = Stopwatch::start();
    for r in 0..tape_rounds {
        for s in 0..streams {
            let w = &pool[(r * streams + s) % pool.len()];
            let _ = tape_forward(&locals[s % locals.len()].0, w);
        }
    }
    let tape_ms_per_window = tape_sw.elapsed_secs() * 1e3 / (tape_rounds * streams) as f64;

    // Counters cover every row end to end (warm-up and chaos included —
    // they are real traffic through the real path).
    cts_obs::serve::reset();
    let mut rows: Vec<Row> = Vec::with_capacity(thread_counts.len());
    let mut served = 0usize;
    let mut cache_proofs = 0usize;
    let mut chaos_recovered = 0usize;
    let mut chaos_total = 0usize;

    for &threads in &thread_counts {
        let cfg = FrontConfig {
            threads,
            max_batch,
            queue_limit,
            retries,
            admission,
            cache_bytes,
        };
        let mut front = ServeFront::new(cfg, factory(probe.clone(), prewarm_rows))
            .map_err(|e| fail(format!("front with {threads} thread(s) failed: {e}")))?;
        println!(
            "serve_bench: {threads} thread(s) serving [{}], {streams} stream(s), \
             {rounds} round(s), max_batch {max_batch}, cache {cache_mb} MiB",
            front.models().join(", ")
        );
        let before = cts_obs::serve::snapshot();

        // Warm-up: run the steady-state shapes through every shard once.
        for r in 0..3 {
            for s in 0..streams {
                let w = pool[(r * streams + s) % pool.len()].clone();
                let id = MODELS[s % MODELS.len()].0;
                front
                    .submit_with(id, w, deadline_ms, 0)
                    .map_err(|e| fail(e.to_string()))?;
            }
            front.flush().map_err(|e| fail(e.to_string()))?;
        }

        // Measured rounds: one flush latency sample per round. The round
        // index doubles as the window origin, driving the cache TTL.
        let mut flush_ms = Vec::with_capacity(rounds);
        let total = Stopwatch::start();
        for r in 0..rounds {
            for s in 0..streams {
                let w = pool[(r * streams + s) % pool.len()].clone();
                let id = MODELS[s % MODELS.len()].0;
                front
                    .submit_with(id, w, deadline_ms, r as u64)
                    .map_err(|e| fail(e.to_string()))?;
            }
            let sw = Stopwatch::start();
            let out = front.flush().map_err(|e| fail(e.to_string()))?;
            flush_ms.push(sw.elapsed_ms());
            if out.len() != streams {
                return Err(fail(format!(
                    "flush answered {} of {streams} requests",
                    out.len()
                )));
            }
            served += out.iter().filter(|(_, r)| r.is_ok()).count();
        }
        let compiled_ms_per_window = total.elapsed_secs() * 1e3 / (rounds * streams) as f64;
        flush_ms.sort_by(|a, b| a.total_cmp(b));

        // Cache proof: serve a window nobody has seen (so the miss is
        // computed as a solo run — ProbSparse selection is batch-averaged,
        // making batched rows legitimately differ from solo ones), then
        // serve it again. Both the solo answer and the cached one must be
        // bit-identical to a fresh main-thread try_run, or the bench
        // fails. The second flush must actually hit the cache when it is
        // enabled.
        for (m, &(id, _)) in MODELS.iter().enumerate() {
            let mut w = pool[m].clone();
            w.data_mut()[0] += 1e-3 * (m as f32 + 1.0); // unseen content
            let fresh = locals[m].1.try_run(&w).map_err(|e| fail(e.to_string()))?;
            let hits_before = cts_obs::serve::snapshot().cache_hit;
            for pass in ["solo-computed", "cached"] {
                front
                    .submit_with(id, w.clone(), None, rounds as u64)
                    .map_err(|e| fail(e.to_string()))?;
                let out = front.flush().map_err(|e| fail(e.to_string()))?;
                let (_, answer) = out
                    .into_iter()
                    .next()
                    .ok_or_else(|| fail("cache-proof flush returned no answer"))?;
                let y = answer.map_err(|e| fail(e.to_string()))?;
                if !bitwise_eq(&y, &fresh) {
                    return Err(fail(format!(
                        "cache proof FAILED: '{id}' {pass} answer diverged \
                         from a fresh try_run"
                    )));
                }
            }
            if cache_bytes > 0 && cts_obs::serve::snapshot().cache_hit == hits_before {
                return Err(fail(format!(
                    "cache proof FAILED: '{id}' repeat window never hit the cache"
                )));
            }
            cache_proofs += 1;
        }

        // Chaos round: admission-level hostility (plan-level faults are
        // thread-local and belong to the chaos test suite). Every
        // failure must come back as a typed per-ticket error.
        let _ = front.submit(MODELS[0].0, Tensor::zeros([1, 2, 3, 4])); // shape
        let mut poisoned = pool[0].clone();
        poisoned.data_mut()[0] = f32::NAN; // masked into the null sentinel
        let _ = front.submit(MODELS[0].0, poisoned);
        let _ = front.submit_with(MODELS[1].0, pool[1].clone(), Some(-1.0), 0);
        let _ = front.submit("no-such-model", pool[0].clone());
        let _ = front.submit(MODELS[1].0, pool[2].clone());
        let chaos = front.flush().map_err(|e| fail(e.to_string()))?;
        chaos_total += chaos.len();
        chaos_recovered += chaos.iter().filter(|(_, r)| r.is_ok()).count();

        let after = cts_obs::serve::snapshot();
        rows.push(Row {
            threads,
            p50: percentile(&flush_ms, 0.50),
            p99: percentile(&flush_ms, 0.99),
            compiled_ms_per_window,
            speedup: tape_ms_per_window / compiled_ms_per_window,
            cache_hit: after.cache_hit - before.cache_hit,
            cache_miss: after.cache_miss - before.cache_miss,
            cache_evict: after.cache_evict - before.cache_evict,
        });
        drop(front); // joins the workers before the next row starts
    }

    let counters = cts_obs::serve::rows();
    let shard_rows = cts_obs::serve::shard_rows();
    cts_obs::serve::emit_row();

    for row in &rows {
        println!(
            "  {} thread(s): p50 {:.3} ms, p99 {:.3} ms, {:.4} ms/window \
             (tape {tape_ms_per_window:.4}, speedup {:.2}x), cache {}/{} hit/miss, \
             {} evicted",
            row.threads,
            row.p50,
            row.p99,
            row.compiled_ms_per_window,
            row.speedup,
            row.cache_hit,
            row.cache_miss,
            row.cache_evict,
        );
    }
    println!(
        "  served {served} measured requests; cache proof passed for \
         {cache_proofs} model-row(s); chaos recovered {chaos_recovered}/{chaos_total}"
    );
    let counter_line: Vec<String> = counters
        .iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    println!("  degradation counters: {}", counter_line.join(", "));

    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"streams\": {streams}, \"max_batch\": {max_batch}, \
                 \"rounds\": {rounds}, \"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \
                 \"compiled_ms_per_window\": {:.6}, \
                 \"tape_ms_per_window\": {tape_ms_per_window:.6}, \"speedup\": {:.4}, \
                 \"cache_hit\": {}, \"cache_miss\": {}, \"cache_evict\": {}}}",
                r.threads,
                r.p50,
                r.p99,
                r.compiled_ms_per_window,
                r.speedup,
                r.cache_hit,
                r.cache_miss,
                r.cache_evict,
            )
        })
        .collect();
    let shard_json: Vec<String> = shard_rows
        .iter()
        .map(|(shard, depth, peak)| {
            format!("{{\"shard\": {shard}, \"depth\": {depth}, \"peak\": {peak}}}")
        })
        .collect();
    let counter_json: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let par = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cfg = SearchConfig {
        m: 3,
        b: 2,
        d_model: 8,
        batch_size: 2,
        ..Default::default()
    };
    let json = format!(
        "{{\n  \"host\": {{\"available_parallelism\": {par}, \
         \"simd_detected\": \"{simd_detected}\", \"simd_active\": \"{simd_active}\"}},\n  \
         \"rows\": [\n{}\n  ],\n  \"summary\": {{\"genotype\": \"{}\", \
         \"models\": [{}], \"cache_mb\": {cache_mb}, \"windows_served\": {served}, \
         \"cache_proof_rows\": {cache_proofs}, \
         \"chaos_recovered\": {chaos_recovered}}},\n  \
         \"serve_counters\": {{{}}},\n  \"shard_depth\": [{}]\n}}\n",
        row_json.join(",\n"),
        genotype(&cfg).to_text(),
        MODELS
            .iter()
            .map(|(id, _)| format!("\"{id}\""))
            .collect::<Vec<_>>()
            .join(", "),
        counter_json.join(", "),
        shard_json.join(", "),
        simd_detected = cts_tensor::simd::detected_name(),
        simd_active = cts_tensor::simd::level_name(),
    );
    let path = format!("{out_dir}/BENCH_serve.json");
    std::fs::write(&path, json)?;
    println!("  wrote {path}");
    Ok(())
}

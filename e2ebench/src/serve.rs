//! The serving workloads: closed loops of logical clients against one
//! `ServeFront` shard, driven from the benchmark's main thread.
//!
//! * `serve_miss` — 8 clients, every window unique, one batch per flush;
//!   the result cache sees only key, miss, insert and evict.
//! * `serve_hit` — 512 clients per round drawn from a 64-window hot set
//!   that the warm-up round puts in the cache; the plan stays idle.

use crate::batch::{config, genotype, Dataset};
use crate::metrics::Values;
use crate::schedule::{self, Picks, Stream};
use crate::trace::Delta;
use crate::{lap, Args, Phase, Workload};
use autocts::{DerivedModel, Genotype, SearchConfig};
use cts_autograd::Tape;
use cts_data::{batches_from_windows, DatasetSpec, Scaler};
use cts_graph::SensorGraph;
use cts_nn::Forecaster;
use cts_runtime::{
    AdmissionPolicy, ExecPlan, ForecastCache, FrontConfig, ServeFront, ShardCanary, ShardFactory,
    ShardModel, TicketAnswer,
};
use cts_tensor::{meter, Tensor};
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

const MODEL_ID: &str = "autocts";
/// Micro-batch cap of the shard, and the batch `serve_miss` flushes.
const MAX_BATCH: usize = 8;
/// Test windows kept as bases for generated request windows.
const POOL: usize = 32;
/// Hot-set size of `serve_hit`.
const HOT: usize = 64;
/// Windows served solo after `serve_miss`'s timed phase and compared with
/// a main-thread `ExecPlan::try_run`.
const SOLO_SAMPLE: u64 = 4;

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Unique windows; the cache only misses.
    Miss,
    /// A hot set; the cache only hits.
    Hit,
}

impl Mode {
    fn clients(self) -> usize {
        match self {
            Mode::Miss => MAX_BATCH,
            Mode::Hit => 512,
        }
    }

    /// Per-model cache byte cap: a few entries for `Miss` (far below the
    /// working set, so inserts evict), room for the hot set for `Hit`.
    fn cache_bytes(self) -> usize {
        match self {
            Mode::Miss => 64 << 10,
            Mode::Hit => 1 << 20,
        }
    }
}

/// A submitted request: ticket, hot-window index (`serve_hit`), submit
/// time.
type Sent = (u64, Option<usize>, Instant);

/// Everything a replica is derived from. Plain data, so shard threads
/// can derive their own bit-identical replicas from it.
struct Source {
    spec: DatasetSpec,
    graph: SensorGraph,
    scaler: Scaler,
    cfg: SearchConfig,
    genotype: Genotype,
}

impl Source {
    fn model(&self) -> Rc<DerivedModel> {
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        Rc::new(DerivedModel::new(
            &mut rng,
            &self.cfg,
            &self.genotype,
            &self.spec,
            &self.graph,
            &self.scaler,
        ))
    }
}

fn tape_forward(model: &DerivedModel, x: &Tensor) -> Tensor {
    let tape = Tape::new();
    let xv = tape.constant(x.clone());
    model.forward(&tape, &xv).value()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Shard factory: derives the replica on the shard thread, canary-gates
/// it against its own tape forward, installs the tape as the last ladder
/// rung and prewarms the batch shape.
fn factory(src: Arc<Source>, probe: Tensor) -> ShardFactory {
    Arc::new(move |_shard| {
        let model = src.model();
        let plan = model
            .compiled_plan()
            .map_err(|e| cts_runtime::ServeError::Config(e.to_string()))?;
        let reference = tape_forward(&model, &probe);
        plan.prewarm(MAX_BATCH);
        Ok(vec![ShardModel {
            id: MODEL_ID.into(),
            plan,
            tape_fallback: Some(Box::new(move |x| Some(tape_forward(&model, x)))),
            canary: Some(ShardCanary {
                probe: probe.clone(),
                reference,
                tol: 0.0,
            }),
        }])
    })
}

/// A serving workload with its front, its main-thread replica and its
/// request schedule.
pub struct Serve {
    mode: Mode,
    seed: u64,
    front: ServeFront,
    admission: AdmissionPolicy,
    /// Main-thread replica: the bit-identity oracle and the plan timer.
    plan: Rc<ExecPlan>,
    pool: Vec<Tensor>,
    /// `serve_hit`'s hot windows and the first answer served for each.
    hot: Vec<Tensor>,
    first: Vec<Vec<f32>>,
    picks: Picks,
    /// Next index into the timed unique-window stream.
    next_k: u64,
    notes: Vec<String>,
}

impl Serve {
    /// Data, main-thread replica, plan compile, front start and warm-up.
    pub fn setup(args: &Args, mode: Mode, laps: &mut Values) -> Result<Self, String> {
        let set = Dataset::build(args.seed, POOL, args.trace, laps);
        let cfg = config(args.seed, MAX_BATCH);
        let src = Arc::new(Source {
            genotype: genotype(&cfg),
            spec: set.spec.clone(),
            graph: set.data.graph.clone(),
            scaler: set.windows.scaler.clone(),
            cfg,
        });
        let model = lap(args.trace, laps, "core.model_build_s", || src.model());
        let plan = lap(args.trace, laps, "runtime.compile_s", || {
            let plan = model.compiled_plan().map_err(|e| e.to_string())?;
            plan.prewarm(MAX_BATCH);
            Ok::<_, String>(plan)
        })?;
        let pool: Vec<Tensor> = batches_from_windows(&set.windows.test, 1)
            .into_iter()
            .take(POOL)
            .map(|(x, _)| x)
            .collect();
        if pool.is_empty() {
            return Err("test split produced no windows".into());
        }
        let admission =
            AdmissionPolicy::new(set.spec.null_value, 1.0).map_err(|e| e.to_string())?;
        let front_cfg = FrontConfig {
            threads: 1,
            max_batch: MAX_BATCH,
            queue_limit: 1024,
            retries: 1,
            admission,
            cache_bytes: mode.cache_bytes(),
        };
        let front = lap(args.trace, laps, "runtime.front_start_s", || {
            ServeFront::new(front_cfg, factory(Arc::clone(&src), pool[0].clone()))
        })
        .map_err(|e| format!("front failed to start: {e}"))?;
        let mut serve = Self {
            mode,
            seed: args.seed,
            front,
            admission,
            plan,
            pool,
            hot: Vec::new(),
            first: Vec::new(),
            picks: Picks::new(args.seed, HOT),
            next_k: 0,
            notes: Vec::new(),
        };
        serve.warm_up()?;
        Ok(serve)
    }

    fn warm_up(&mut self) -> Result<(), String> {
        match self.mode {
            Mode::Miss => {
                for round in 0..3u64 {
                    let windows: Vec<Tensor> = (0..MAX_BATCH as u64)
                        .map(|c| {
                            schedule::window(&self.pool, self.seed, Stream::Warmup, round * 8 + c)
                        })
                        .collect();
                    self.serve_round(windows)?;
                }
            }
            Mode::Hit => {
                self.hot = (0..HOT as u64)
                    .map(|k| schedule::window(&self.pool, self.seed, Stream::HotSet, k))
                    .collect();
                self.first = self
                    .serve_round(self.hot.clone())?
                    .into_iter()
                    .map(|y| y.data().to_vec())
                    .collect();
                for _ in 0..2 {
                    let windows = self.next_hot_round().into_iter().map(|(_, w)| w).collect();
                    self.serve_round(windows)?;
                }
            }
        }
        Ok(())
    }

    /// Serve `windows` as one round, failing on any per-request error.
    fn serve_round(&mut self, windows: Vec<Tensor>) -> Result<Vec<Tensor>, String> {
        let n = windows.len();
        for w in windows {
            self.front
                .submit_with(MODEL_ID, w, None, 0)
                .map_err(|e| e.to_string())?;
        }
        let answers = self.front.flush().map_err(|e| e.to_string())?;
        if answers.len() != n {
            return Err(format!("flush answered {} of {n} requests", answers.len()));
        }
        answers
            .into_iter()
            .map(|(_, r)| r.map_err(|e| e.to_string()))
            .collect()
    }

    fn next_hot_round(&mut self) -> Vec<(usize, Tensor)> {
        (0..Mode::Hit.clients())
            .map(|_| {
                let i = self.picks.next_index();
                (i, self.hot[i].clone())
            })
            .collect()
    }

    /// Is one answer correct? Shape and finiteness always; for `Hit`,
    /// bit identity with the first answer served for that hot window.
    fn answer_ok(&self, hot_index: Option<usize>, y: &Tensor) -> bool {
        let shape_ok = y.shape() == [1, self.plan.nodes(), self.plan.horizon()];
        let finite = y.data().iter().all(|v| v.is_finite());
        let same = match hot_index {
            Some(i) => self.first.get(i).is_some_and(|f| same_bits(f, y.data())),
            None => true,
        };
        shape_ok && finite && same
    }

    /// Score one flush: every sent request must come back answered and
    /// correct; latency runs from its submit to the flush's return.
    fn tally(&self, phase: &mut Phase, answers: &[TicketAnswer], sent: &[Sent], done: Instant) {
        phase.failed += sent.len().saturating_sub(answers.len()) as u64;
        for (ticket, result) in answers {
            let Ok(i) = sent.binary_search_by_key(ticket, |s| s.0) else {
                phase.failed += 1;
                continue;
            };
            let (_, pick, at) = sent[i];
            match result {
                Ok(y) if self.answer_ok(pick, y) => {
                    phase.units += 1.0;
                    phase.latency.record((done - at).as_secs_f64() * 1e3);
                }
                _ => phase.failed += 1,
            }
        }
    }

    /// Keep a bounded number of failure notes.
    fn note(&mut self, msg: String) {
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }

    /// Median microseconds of one call of `f`, timed in groups of 64.
    fn op_us(mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..64 {
                    f();
                }
                t.elapsed().as_secs_f64() * 1e6 / 64.0
            })
            .collect();
        crate::stats::median(&samples).unwrap_or(0.0)
    }

    /// The workload's batch, stacked from the pool.
    fn batch(&self) -> Tensor {
        let parts: Vec<&Tensor> = self.pool.iter().cycle().take(MAX_BATCH).collect();
        cts_tensor::ops::concat(&parts, 0)
    }
}

impl Workload for Serve {
    fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        let clients = self.mode.clients();
        let mut phase = Phase::default();
        // (ticket, hot-window index, submit time) of this round's requests.
        let mut sent: Vec<Sent> = Vec::with_capacity(clients);
        let start = Instant::now();
        while phase.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
            let round: Vec<(Option<usize>, Tensor)> = match self.mode {
                Mode::Miss => (0..clients)
                    .map(|_| {
                        let k = self.next_k;
                        self.next_k += 1;
                        (
                            None,
                            schedule::window(&self.pool, self.seed, Stream::Timed, k),
                        )
                    })
                    .collect(),
                Mode::Hit => self
                    .next_hot_round()
                    .into_iter()
                    .map(|(i, w)| (Some(i), w))
                    .collect(),
            };
            let round_start = Instant::now();
            let answered = phase.units;
            sent.clear();
            for (pick, w) in round {
                let at = Instant::now();
                let ticket = self.front.submit_with(MODEL_ID, w, None, 0);
                if traced {
                    phase.submit_ns += at.elapsed().as_nanos() as u64;
                }
                phase.attempted += 1;
                match ticket {
                    Ok(t) => sent.push((t, pick, at)),
                    Err(e) => {
                        phase.failed += 1;
                        self.note(format!("submit failed: {e}"));
                    }
                }
            }
            let flush_start = Instant::now();
            let answers = self.front.flush();
            let done = Instant::now();
            phase
                .flush_ms
                .push((done - flush_start).as_secs_f64() * 1e3);
            match answers {
                Ok(a) => self.tally(&mut phase, &a, &sent, done),
                Err(e) => {
                    phase.failed += sent.len() as u64;
                    self.note(format!("flush failed: {e}"));
                }
            }
            phase
                .rates
                .push((phase.units - answered) / (done - round_start).as_secs_f64());
        }
        phase.secs = start.elapsed().as_secs_f64();
        phase
    }

    fn check(&mut self, notes: &mut Vec<String>) -> (u64, u64) {
        notes.append(&mut self.notes);
        if self.mode != Mode::Miss {
            return (0, 0);
        }
        // Re-serve the first timed windows solo: long evicted by now, so
        // each is computed afresh in a batch of one and must equal the
        // main-thread plan bit for bit. (Batched answers may differ:
        // ProbSparse query selection averages over the batch.)
        let mut failed = 0;
        for k in 0..SOLO_SAMPLE {
            let w = schedule::window(&self.pool, self.seed, Stream::Timed, k);
            let misses = cts_obs::serve::snapshot().cache_miss;
            let served = self.serve_round(vec![w.clone()]);
            let recomputed = cts_obs::serve::snapshot().cache_miss > misses;
            let fresh = self.plan.try_run(&w).map_err(|e| e.to_string());
            match (served, fresh) {
                (Ok(s), Ok(f)) if recomputed && same_bits(s[0].data(), f.data()) => {}
                (s, f) => {
                    failed += 1;
                    notes.push(format!(
                        "solo re-serve of timed window {k} is not bit-identical to try_run \
                         (recomputed: {recomputed}, served ok: {}, try_run ok: {})",
                        s.is_ok(),
                        f.is_ok()
                    ));
                }
            }
        }
        (SOLO_SAMPLE, failed)
    }

    fn layers(&mut self, delta: &Delta, phase: &Phase, v: &mut Values) {
        let requests = phase.units.max(1.0);
        let (hits, misses) = (delta.serve(|c| c.cache_hit), delta.serve(|c| c.cache_miss));
        v.set(
            "runtime.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        v.set(
            "runtime.cache_evict_per_req",
            delta.serve(|c| c.cache_evict) as f64 / requests,
        );
        let degraded = [
            delta.serve(|c| c.queue_shed),
            delta.serve(|c| c.deadline_shed),
            delta.serve(|c| c.batch_failures),
            delta.serve(|c| c.poisoned_outputs),
            delta.serve(|c| c.quarantined),
            delta.serve(|c| c.degraded_solo),
            delta.serve(|c| c.degraded_tape),
            delta.serve(|c| c.failed_requests),
        ];
        v.set("runtime.degraded", degraded.iter().sum::<u64>() as f64);
        v.set(
            "runtime.shard_peak_depth",
            cts_obs::serve::shard_depth(0).1 as f64,
        );
        v.set(
            "runtime.submit_us",
            phase.submit_ns as f64 / 1e3 / (phase.attempted.max(1)) as f64,
        );

        // The plan at the workload's batch size, on the main thread:
        // time, and the meter's exact work per window.
        // Client windows drain the main thread's arena, so prewarm it again.
        let batch = self.batch();
        let plan = Rc::clone(&self.plan);
        plan.prewarm(MAX_BATCH);
        black_box(plan.try_run(&batch).is_ok());
        let run_ms: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                let _ = plan.try_run(&batch);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let plan_ms = crate::stats::median(&run_ms).unwrap_or(0.0) / MAX_BATCH as f64;
        v.set("runtime.plan_ms_per_window", plan_ms);
        meter::set_enabled(true);
        let m0 = meter::snapshot();
        let _ = plan.try_run(&batch);
        let m1 = meter::snapshot();
        meter::set_enabled(false);
        // Only misses run the plan; hits cost the plan nothing.
        let computed_share = misses as f64 / requests;
        let bytes = (m1.bytes_read() + m1.bytes_written()) - (m0.bytes_read() + m0.bytes_written());
        v.set(
            "tensor.flops_per_op",
            (m1.flops - m0.flops) as f64 / MAX_BATCH as f64 * computed_share,
        );
        v.set(
            "tensor.bytes_per_op",
            bytes as f64 / MAX_BATCH as f64 * computed_share,
        );
        let flushes = phase.flush_ms.len().max(1) as f64;
        let mean_flush = phase.flush_ms.iter().sum::<f64>() / flushes;
        let plan_per_flush = plan_ms * misses as f64 / flushes;
        v.set(
            "runtime.flush_overhead_ms",
            (mean_flush - plan_per_flush).max(0.0),
        );

        // Front and cache entry points, timed on the main thread on the
        // workload's own windows and cache configuration.
        let w = match self.mode {
            Mode::Miss => schedule::window(&self.pool, self.seed, Stream::Timed, 0),
            Mode::Hit => self.hot[0].clone(),
        };
        let want = [
            self.plan.nodes(),
            self.plan.input_len(),
            self.plan.features(),
        ];
        let mut admitted = w.clone();
        let admission = self.admission;
        v.set(
            "runtime.admit_us",
            Self::op_us(|| {
                black_box(admission.admit(black_box(&mut admitted), want).is_ok());
            }),
        );
        let front = &self.front;
        v.set(
            "runtime.route_us",
            Self::op_us(|| {
                black_box(front.shard_of(MODEL_ID, black_box(&w)));
            }),
        );
        v.set(
            "runtime.cache_key_us",
            Self::op_us(|| {
                black_box(ForecastCache::key(black_box(&w)));
            }),
        );
        let y = Tensor::zeros([1, self.plan.nodes(), self.plan.horizon()]);
        let mut cache = ForecastCache::new(self.mode.cache_bytes(), self.plan.horizon());
        let keys: Vec<_> = (0..HOT as u64)
            .map(|k| {
                ForecastCache::key(&schedule::window(&self.pool, self.seed, Stream::HotSet, k))
            })
            .collect();
        for k in &keys {
            cache.insert(k.clone(), &y, 0);
        }
        // Look up what the workload looks up: resident keys for `Hit`,
        // unseen ones for `Miss`.
        let probe = match self.mode {
            Mode::Hit => keys.last().cloned(),
            Mode::Miss => Some(ForecastCache::key(&w)),
        };
        if let Some(probe) = probe {
            v.set(
                "runtime.cache_lookup_us",
                Self::op_us(|| {
                    black_box(cache.lookup(black_box(&probe), 0));
                }),
            );
        }
        let mut fresh: Vec<_> = (0..15 * 64u64)
            .map(|k| {
                ForecastCache::key(&schedule::window(
                    &self.pool,
                    self.seed,
                    Stream::Warmup,
                    1000 + k,
                ))
            })
            .collect();
        v.set(
            "runtime.cache_insert_us",
            Self::op_us(|| {
                if let Some(k) = fresh.pop() {
                    cache.insert(k, &y, 0);
                }
            }),
        );
    }
}

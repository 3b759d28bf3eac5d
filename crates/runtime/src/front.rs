//! Concurrent serving front-end: sharded ingestion across worker threads,
//! each owning its own compiled plan replicas, with multi-model routing
//! and a per-model horizon-aware result cache.
//!
//! A compiled [`ExecPlan`] is built from `Rc`-shared weights and is
//! therefore `!Send` — it can never cross a thread boundary. Instead of
//! fighting that, the front-end embraces it: every worker thread runs a
//! caller-supplied [`ShardFactory`] *on the worker thread itself* to
//! compile its own private replica set. Derivation is deterministic
//! (seeded RNG), so replicas are bit-identical across shards; only `Send`
//! request envelopes and raw `f32` tensor buffers ever cross the
//! [`std::sync::mpsc`] channels.
//!
//! Routing is content-deterministic: a request's shard is an FNV-1a hash
//! of its model id, shape, and exact input bit pattern. The same window
//! always lands on the same shard, which makes the per-shard result
//! cache exact — a cached forecast can never be duplicated across shards
//! and a repeat request always finds its entry.
//!
//! Inside each shard the full PR-7 machinery is reused unchanged: one
//! [`crate::MicroBatcher`] per model (admission control, skip-ahead
//! packing, deadline shedding, the solo/tape degradation ladder), plans
//! routed through a [`PlanRegistry`] whose canary gate parity-checks each
//! replica before it serves, and every event counted in
//! `cts_obs::serve` — including per-shard queue-depth gauges.

use crate::admission::AdmissionPolicy;
use crate::batcher::{MicroBatcher, TapeFallback};
use crate::cache::{CacheKey, ForecastCache};
use crate::error::ServeError;
use crate::registry::PlanRegistry;
use crate::ExecPlan;
use cts_obs::serve as counters;
use cts_obs::Stopwatch;
use cts_tensor::Tensor;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Canary probe for one shard replica: the replica must reproduce
/// `reference` on `probe` within `tol` before its shard starts serving
/// it (see [`PlanRegistry::admit`]).
pub struct ShardCanary {
    /// Probe window (`[b, N, T, F]`).
    pub probe: Tensor,
    /// Expected forecast, typically computed once on the tape.
    pub reference: Tensor,
    /// Allowed elementwise divergence.
    pub tol: f32,
}

/// One model a shard serves, as produced by the [`ShardFactory`] on the
/// worker thread that will own it.
pub struct ShardModel {
    /// Model id requests route by.
    pub id: String,
    /// The shard's private plan replica.
    pub plan: Rc<ExecPlan>,
    /// Optional degradation-ladder rung 3 for this replica.
    pub tape_fallback: Option<TapeFallback>,
    /// Optional canary gate; `None` registers the replica un-gated.
    pub canary: Option<ShardCanary>,
}

/// Builds a shard's model replicas *on that shard's thread* (the factory
/// is the per-thread init hook — plan compilation, prewarming, and any
/// thread-local setup happen inside it). Called once per shard with the
/// shard index; must be deterministic in the model ids it returns, since
/// every shard has to serve the same catalogue.
pub type ShardFactory = Arc<dyn Fn(usize) -> Result<Vec<ShardModel>, ServeError> + Send + Sync>;

/// One flushed answer: the request's ticket paired with its forecast or
/// its typed per-request failure.
pub type TicketAnswer = (u64, Result<Tensor, ServeError>);

/// Front-end knobs, applied uniformly to every shard and model.
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    /// Serving worker threads (= shards). Each compiles its own replicas.
    pub threads: usize,
    /// Per-model micro-batch cap (windows per coalesced forward).
    pub max_batch: usize,
    /// Per-model pending-queue bound; excess requests are shed typed.
    pub queue_limit: usize,
    /// Solo re-run retries in the degradation ladder.
    pub retries: usize,
    /// Admission policy applied on the worker before caching/queueing.
    pub admission: AdmissionPolicy,
    /// Per-model result-cache byte cap; `0` disables the cache.
    pub cache_bytes: usize,
}

impl Default for FrontConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            max_batch: 8,
            queue_limit: 1024,
            retries: 1,
            admission: AdmissionPolicy::default(),
            cache_bytes: 0,
        }
    }
}

/// One request crossing the channel to its shard. Everything in here is
/// `Send`: the tensor is a plain buffer, and the stopwatch started at
/// submission so deadline budgets include channel wait time.
struct Envelope {
    ticket: u64,
    model: String,
    x: Tensor,
    deadline_ms: Option<f64>,
    origin: u64,
    queued: Stopwatch,
}

enum WorkerMsg {
    Request(Envelope),
    Flush,
    Shutdown,
}

enum Reply {
    /// Worker finished (or failed) its factory init; sent exactly once.
    Ready {
        shard: usize,
        models: Result<Vec<String>, ServeError>,
    },
    Answer {
        ticket: u64,
        result: Result<Tensor, ServeError>,
    },
    FlushDone,
}

/// Sends a typed init failure if the worker unwinds before reporting
/// ready, so [`ServeFront::new`] never hangs on a panicking factory.
struct ReadyGuard {
    shard: usize,
    reply: Sender<Reply>,
    armed: bool,
}

impl ReadyGuard {
    fn defuse(mut self) {
        self.armed = false;
    }
}

impl Drop for ReadyGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.reply.send(Reply::Ready {
                shard: self.shard,
                models: Err(ServeError::ShardDown {
                    shard: self.shard,
                    cause: "worker initialization panicked".into(),
                }),
            });
        }
    }
}

/// Per-model serving state on one shard.
struct Slot {
    batcher: MicroBatcher,
    cache: Option<ForecastCache>,
    /// `[N, T, F]` the replica was compiled for (admission shape check).
    want: [usize; 3],
    /// Queued requests awaiting flush: `(ticket, cache key, origin)`,
    /// aligned index-for-index with the batcher's pending queue.
    tickets: Vec<(u64, Option<CacheKey>, u64)>,
}

/// One worker thread's serving state.
struct Worker {
    shard: usize,
    registry: PlanRegistry,
    slots: HashMap<String, Slot>,
    /// Sorted model ids — flush order, and the catalogue reported ready.
    ids: Vec<String>,
    admission: AdmissionPolicy,
}

impl Worker {
    /// Run the factory and assemble per-model serving state. Any error —
    /// factory failure, bad config, canary rejection — aborts the whole
    /// shard with a typed error.
    fn build(shard: usize, cfg: &FrontConfig, factory: &ShardFactory) -> Result<Self, ServeError> {
        let models = factory(shard)?;
        if models.is_empty() {
            return Err(ServeError::Config(format!(
                "shard {shard} factory produced no models"
            )));
        }
        let mut registry = PlanRegistry::new();
        let mut slots = HashMap::new();
        for m in models {
            if slots.contains_key(&m.id) {
                return Err(ServeError::Config(format!(
                    "shard {shard} factory produced duplicate model id '{}'",
                    m.id
                )));
            }
            match &m.canary {
                Some(c) => {
                    registry.admit(
                        m.id.clone(),
                        Rc::clone(&m.plan),
                        &c.probe,
                        &c.reference,
                        c.tol,
                    )?;
                }
                None => {
                    registry.insert(m.id.clone(), Rc::clone(&m.plan));
                }
            }
            let want = [m.plan.nodes(), m.plan.input_len(), m.plan.features()];
            let cache = (cfg.cache_bytes > 0)
                .then(|| ForecastCache::new(cfg.cache_bytes, m.plan.horizon()));
            let mut batcher = MicroBatcher::new(Rc::clone(&m.plan), cfg.max_batch)?
                .with_queue_limit(cfg.queue_limit)?
                .with_retries(cfg.retries);
            if let Some(fb) = m.tape_fallback {
                batcher = batcher.with_tape_fallback(fb);
            }
            slots.insert(
                m.id,
                Slot {
                    batcher,
                    cache,
                    want,
                    tickets: Vec::new(),
                },
            );
        }
        let mut ids: Vec<String> = slots.keys().cloned().collect();
        ids.sort_unstable();
        Ok(Self {
            shard,
            registry,
            slots,
            ids,
            admission: cfg.admission,
        })
    }

    /// Route one request: registry lookup, admission, cache consult,
    /// queue. Rejections answer immediately; queued requests answer at
    /// the next flush.
    fn handle(&mut self, env: Envelope, reply: &Sender<Reply>) {
        let Envelope {
            ticket,
            model,
            mut x,
            deadline_ms,
            origin,
            queued,
        } = env;
        // Routing precedes admission, so an unknown model is counted on
        // its own — not as a submitted/rejected pair.
        if self.registry.get(&model).is_none() {
            counters::record_unknown_model();
            let _ = reply.send(Reply::Answer {
                ticket,
                result: Err(ServeError::UnknownModel { id: model }),
            });
            return;
        }
        let slot = match self.slots.get_mut(&model) {
            Some(s) => s,
            // Registry and slots are built from the same factory output;
            // treat a mismatch as an unknown model rather than panicking.
            None => {
                counters::record_unknown_model();
                let _ = reply.send(Reply::Answer {
                    ticket,
                    result: Err(ServeError::UnknownModel { id: model }),
                });
                return;
            }
        };
        counters::record_submitted();
        match self.admission.admit(&mut x, slot.want) {
            Ok(report) => {
                if report.masked > 0 {
                    counters::record_masked_window();
                }
            }
            Err(e) => {
                match &e {
                    ServeError::BadShape { .. } => counters::record_rejected_shape(),
                    ServeError::NonFinite { .. } => counters::record_rejected_non_finite(),
                    ServeError::TooMissing { .. } => counters::record_rejected_missing(),
                    _ => {}
                }
                let _ = reply.send(Reply::Answer {
                    ticket,
                    result: Err(e),
                });
                return;
            }
        }
        // Consult the cache on the *sanitized* window, so a masked
        // request and its pre-masked twin share an entry.
        let key = slot.cache.as_ref().map(|_| ForecastCache::key(&x));
        if let (Some(cache), Some(k)) = (slot.cache.as_mut(), key.as_ref()) {
            if let Some(y) = cache.lookup(k, origin) {
                counters::record_admitted();
                let _ = reply.send(Reply::Answer {
                    ticket,
                    result: Ok(y),
                });
                return;
            }
        }
        match slot.batcher.enqueue_presanitized(x, deadline_ms, queued) {
            Ok(()) => slot.tickets.push((ticket, key, origin)),
            Err(e) => {
                let _ = reply.send(Reply::Answer {
                    ticket,
                    result: Err(e),
                });
                return;
            }
        }
        let depth: usize = self.slots.values().map(|s| s.batcher.pending()).sum();
        counters::set_shard_depth(self.shard, depth as u64);
    }

    /// Flush every model's batcher (in sorted-id order for determinism),
    /// populate the cache from fresh forecasts, and answer every queued
    /// ticket, ending with this shard's flush marker.
    fn flush(&mut self, reply: &Sender<Reply>) {
        for id in &self.ids {
            let Some(slot) = self.slots.get_mut(id) else {
                continue;
            };
            let tickets = std::mem::take(&mut slot.tickets);
            let results = slot.batcher.flush();
            for ((ticket, key, origin), result) in tickets.into_iter().zip(results) {
                if let (Ok(y), Some(k)) = (&result, key) {
                    if let Some(cache) = slot.cache.as_mut() {
                        cache.insert(k, y, origin);
                    }
                }
                let _ = reply.send(Reply::Answer { ticket, result });
            }
        }
        counters::set_shard_depth(self.shard, 0);
        let _ = reply.send(Reply::FlushDone);
    }
}

fn worker_main(
    shard: usize,
    cfg: FrontConfig,
    factory: ShardFactory,
    rx: Receiver<WorkerMsg>,
    reply: Sender<Reply>,
) {
    let guard = ReadyGuard {
        shard,
        reply: reply.clone(),
        armed: true,
    };
    let built = Worker::build(shard, &cfg, &factory);
    guard.defuse();
    let mut worker = match built {
        Ok(w) => w,
        Err(e) => {
            let _ = reply.send(Reply::Ready {
                shard,
                models: Err(e),
            });
            return;
        }
    };
    let _ = reply.send(Reply::Ready {
        shard,
        models: Ok(worker.ids.clone()),
    });
    for msg in rx {
        match msg {
            WorkerMsg::Request(env) => worker.handle(env, &reply),
            WorkerMsg::Flush => worker.flush(&reply),
            WorkerMsg::Shutdown => break,
        }
    }
}

/// FNV-1a over a model id and a window's shape + exact bit pattern.
fn route_hash(model: &str, x: &Tensor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &b in model.as_bytes() {
        eat(b);
    }
    eat(0); // separator: id "a" + shape [1] != id "a\x01" + shape []
    for &d in x.shape() {
        for b in (d as u64).to_le_bytes() {
            eat(b);
        }
    }
    for &v in x.data() {
        for b in v.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Sharded, multi-threaded serving front-end.
///
/// Owns `threads` worker threads, each serving its own bit-identical
/// plan replicas behind a [`crate::MicroBatcher`] per model and an
/// optional per-model forecast cache. [`submit`](Self::submit) routes a
/// request to its content-deterministic shard and returns a ticket;
/// [`flush`](Self::flush) runs every shard's pending batch and returns
/// all available answers in ticket order.
///
/// Dropping the front shuts every worker down and joins it.
pub struct ServeFront {
    threads: usize,
    to_shard: Vec<Sender<WorkerMsg>>,
    replies: Receiver<Reply>,
    workers: Vec<JoinHandle<()>>,
    models: Vec<String>,
    next_ticket: u64,
}

impl ServeFront {
    /// Spawn the worker threads and run `factory` on each; returns once
    /// every shard reports ready (or any shard fails, in which case all
    /// workers are torn down and the first failure is returned).
    ///
    /// # Errors
    /// [`ServeError::Config`] for unusable knobs or a factory whose model
    /// catalogue differs between shards; any error the factory, the
    /// canary gate, or batcher construction produced on a shard;
    /// [`ServeError::ShardDown`] when a factory panicked.
    pub fn new(cfg: FrontConfig, factory: ShardFactory) -> Result<Self, ServeError> {
        if cfg.threads == 0 {
            return Err(ServeError::Config("threads must be at least 1".into()));
        }
        if cfg.threads > counters::MAX_SHARDS {
            return Err(ServeError::Config(format!(
                "threads must be at most {} (the shard gauge bound)",
                counters::MAX_SHARDS
            )));
        }
        let (reply_tx, replies) = mpsc::channel();
        let mut to_shard: Vec<Sender<WorkerMsg>> = Vec::with_capacity(cfg.threads);
        let mut workers = Vec::with_capacity(cfg.threads);
        for shard in 0..cfg.threads {
            let (tx, rx) = mpsc::channel();
            let factory = Arc::clone(&factory);
            let reply = reply_tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("cts-serve-shard-{shard}"))
                .spawn(move || worker_main(shard, cfg, factory, rx, reply));
            match spawned {
                Ok(handle) => {
                    workers.push(handle);
                    to_shard.push(tx);
                }
                Err(e) => {
                    Self::teardown(&to_shard, workers);
                    return Err(ServeError::Config(format!(
                        "failed to spawn serving shard {shard}: {e}"
                    )));
                }
            }
        }
        // Collect every shard's ready report before accepting traffic.
        let mut catalogues: Vec<Option<Vec<String>>> = (0..cfg.threads).map(|_| None).collect();
        let mut seen = 0;
        while seen < cfg.threads {
            match replies.recv() {
                Ok(Reply::Ready { shard, models }) => {
                    seen += 1;
                    match models {
                        Ok(ids) => {
                            if let Some(entry) = catalogues.get_mut(shard) {
                                *entry = Some(ids);
                            }
                        }
                        Err(e) => {
                            Self::teardown(&to_shard, workers);
                            return Err(e);
                        }
                    }
                }
                // No requests have been submitted yet, so Ready is the
                // only reply a worker can send; ignore anything else.
                Ok(_) => {}
                Err(_) => {
                    Self::teardown(&to_shard, workers);
                    return Err(ServeError::FrontClosed);
                }
            }
        }
        let mut lists = Vec::with_capacity(cfg.threads);
        for (shard, l) in catalogues.into_iter().enumerate() {
            match l {
                Some(ids) => lists.push(ids),
                None => {
                    Self::teardown(&to_shard, workers);
                    return Err(ServeError::Config(format!(
                        "shard {shard} never reported ready"
                    )));
                }
            }
        }
        if lists.iter().any(|l| *l != lists[0]) {
            Self::teardown(&to_shard, workers);
            return Err(ServeError::Config(
                "shard factory is not deterministic: shards disagree on model ids".into(),
            ));
        }
        let models = lists.swap_remove(0);
        Ok(Self {
            threads: cfg.threads,
            to_shard,
            replies,
            workers,
            models,
            next_ticket: 0,
        })
    }

    fn teardown(to_shard: &[Sender<WorkerMsg>], workers: Vec<JoinHandle<()>>) {
        for tx in to_shard {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for h in workers {
            let _ = h.join();
        }
    }

    /// Sorted model ids every shard serves.
    pub fn models(&self) -> &[String] {
        &self.models
    }

    /// Number of serving shards.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shard a `(model, window)` pair deterministically routes to:
    /// an FNV-1a content hash, so identical requests always share a
    /// shard (and therefore a cache).
    pub fn shard_of(&self, model: &str, x: &Tensor) -> usize {
        (route_hash(model, x) % self.threads as u64) as usize
    }

    /// Submit a request for `model` with no deadline at window origin 0.
    ///
    /// # Errors
    /// See [`submit_with`](Self::submit_with).
    pub fn submit(&mut self, model: &str, x: Tensor) -> Result<u64, ServeError> {
        self.submit_with(model, x, None, 0)
    }

    /// Submit a request, returning the ticket its answer will carry.
    /// `deadline_ms` bounds total queueing time (channel wait included);
    /// `origin` is the window's logical position, driving the result
    /// cache's horizon TTL (pass 0 to opt out of TTL expiry).
    ///
    /// Admission and cache verdicts happen on the worker — every
    /// per-request failure arrives as that ticket's answer at the next
    /// [`flush`](Self::flush), not here.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] when the target shard's channel is gone.
    pub fn submit_with(
        &mut self,
        model: &str,
        x: Tensor,
        deadline_ms: Option<f64>,
        origin: u64,
    ) -> Result<u64, ServeError> {
        let shard = self.shard_of(model, &x);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let env = Envelope {
            ticket,
            model: model.to_string(),
            x,
            deadline_ms,
            origin,
            queued: Stopwatch::start(),
        };
        self.to_shard[shard]
            .send(WorkerMsg::Request(env))
            .map_err(|_| ServeError::ShardDown {
                shard,
                cause: "request channel disconnected".into(),
            })?;
        Ok(ticket)
    }

    /// Flush every shard and collect all available answers — queued
    /// forecasts, cache hits, and per-request rejections — sorted by
    /// ticket.
    ///
    /// # Errors
    /// [`ServeError::ShardDown`] when a shard's channel is gone;
    /// [`ServeError::FrontClosed`] when every worker exited before all
    /// flush markers arrived. Per-request failures are *not* errors here:
    /// they are returned as that ticket's `Err` entry.
    pub fn flush(&mut self) -> Result<Vec<TicketAnswer>, ServeError> {
        for (shard, tx) in self.to_shard.iter().enumerate() {
            tx.send(WorkerMsg::Flush)
                .map_err(|_| ServeError::ShardDown {
                    shard,
                    cause: "request channel disconnected".into(),
                })?;
        }
        let mut answers = Vec::new();
        let mut done = 0;
        while done < self.to_shard.len() {
            match self.replies.recv() {
                Ok(Reply::Answer { ticket, result }) => answers.push((ticket, result)),
                Ok(Reply::FlushDone) => done += 1,
                Ok(Reply::Ready { .. }) => {}
                Err(_) => return Err(ServeError::FrontClosed),
            }
        }
        answers.sort_by_key(|(t, _)| *t);
        Ok(answers)
    }
}

impl Drop for ServeFront {
    fn drop(&mut self) {
        for tx in &self.to_shard {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockPlan, PlanSpec};
    use cts_graph::SensorGraph;
    use cts_nn::Linear;
    use cts_ops::{build_operator, GraphContext, OpKind, StOperator};
    use cts_tensor::init;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn plan(rng: &mut impl Rng) -> Rc<ExecPlan> {
        let (n, t, f, d) = (3, 4, 2, 4);
        let op: Rc<dyn StOperator> = Rc::from(build_operator(rng, OpKind::Gdcc, "op", d, 2, false));
        Rc::new(
            ExecPlan::compile(PlanSpec {
                embed: Rc::new(Linear::new(rng, "embed", f, d, true)),
                output: Rc::new(Linear::new(rng, "output", t * d, 5, true)),
                ctx: Rc::new(GraphContext::from_graph(&SensorGraph::identity(n), 2)),
                blocks: vec![BlockPlan {
                    m: 2,
                    edges: vec![(0, 1, op)],
                }],
                backbone: vec![0],
                out_scale: 1.0,
                out_shift: 0.0,
                input_len: t,
                d_model: d,
                nodes: n,
                features: f,
            })
            .unwrap(),
        )
    }

    fn factory(seed: u64) -> ShardFactory {
        Arc::new(move |_shard| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Ok(vec![ShardModel {
                id: "m".into(),
                plan: plan(&mut rng),
                tape_fallback: None,
                canary: None,
            }])
        })
    }

    #[test]
    fn config_validation_is_typed() {
        let cfg = FrontConfig {
            threads: 0,
            ..FrontConfig::default()
        };
        assert!(matches!(
            ServeFront::new(cfg, factory(0)),
            Err(ServeError::Config(_))
        ));
        let cfg = FrontConfig {
            threads: counters::MAX_SHARDS + 1,
            ..FrontConfig::default()
        };
        assert!(matches!(
            ServeFront::new(cfg, factory(0)),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn factory_errors_and_disagreement_surface_typed() {
        let failing: ShardFactory =
            Arc::new(|shard| Err(ServeError::Config(format!("shard {shard} refused"))));
        assert!(matches!(
            ServeFront::new(FrontConfig::default(), failing),
            Err(ServeError::Config(msg)) if msg.contains("refused")
        ));
        // Shards disagreeing on the catalogue is a config error.
        let split: ShardFactory = Arc::new(move |shard| {
            let mut rng = SmallRng::seed_from_u64(9);
            Ok(vec![ShardModel {
                id: if shard == 0 { "a".into() } else { "b".into() },
                plan: plan(&mut rng),
                tape_fallback: None,
                canary: None,
            }])
        });
        let cfg = FrontConfig {
            threads: 2,
            ..FrontConfig::default()
        };
        assert!(matches!(
            ServeFront::new(cfg, split),
            Err(ServeError::Config(msg)) if msg.contains("disagree")
        ));
        // A panicking factory still reports typed, without hanging.
        let panicking: ShardFactory = Arc::new(|_| panic!("factory exploded"));
        assert!(matches!(
            ServeFront::new(FrontConfig::default(), panicking),
            Err(ServeError::ShardDown { .. })
        ));
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let cfg = FrontConfig {
            threads: 3,
            ..FrontConfig::default()
        };
        let mut front = ServeFront::new(cfg, factory(1)).unwrap();
        assert_eq!(front.models(), ["m".to_string()]);
        let mut rng = SmallRng::seed_from_u64(2);
        let windows: Vec<Tensor> = (0..16)
            .map(|_| init::uniform(&mut rng, [1, 3, 4, 2], -1.0, 1.0))
            .collect();
        for w in &windows {
            let s = front.shard_of("m", w);
            assert!(s < 3);
            assert_eq!(s, front.shard_of("m", w), "routing not deterministic");
        }
        // Content-based routing actually spreads load.
        let distinct: std::collections::HashSet<usize> =
            windows.iter().map(|w| front.shard_of("m", w)).collect();
        assert!(distinct.len() > 1, "all windows routed to one shard");
        // Different model ids can route the same window differently.
        let _ = front.submit("m", windows[0].clone()).unwrap();
        let out = front.flush().unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].1.is_ok());
    }
}

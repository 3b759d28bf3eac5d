//! Request micro-batching: coalesce concurrent sensor-stream requests into
//! one batched forward through a compiled plan — with admission control,
//! load shedding, batch isolation, and a degradation ladder so one hostile
//! or unlucky request can never take its coalesced neighbours down.

use crate::admission::AdmissionPolicy;
use crate::error::ServeError;
use crate::ExecPlan;
use cts_obs::serve as counters;
use cts_obs::Stopwatch;
use cts_tensor::{ops, Tensor};
use std::rc::Rc;

/// Answer a request by re-running it through the tape when the compiled
/// plan cannot (ladder rung 3). Injected as a closure because this crate
/// is structurally tape-free — the caller owns the tape.
pub type TapeFallback = Box<dyn Fn(&Tensor) -> Option<Tensor>>;

/// One admitted request waiting for the next flush.
struct Pending {
    x: Tensor,
    /// Deadline budget in milliseconds; a negative budget is already
    /// expired (the deterministic knob chaos tests use).
    deadline_ms: Option<f64>,
    queued: Stopwatch,
}

/// Coalesces pending forecast requests into batched [`ExecPlan::try_run`]
/// calls.
///
/// Each submitted request is a window batch `[b_i, N, T, F]` (typically
/// `b_i = 1`: one live stream). Admission control rejects hostile inputs
/// at [`submit`]; [`flush`] sheds expired requests, greedily packs the
/// rest up to `max_batch` windows per forward — scanning past requests
/// that don't fit so a large request never strands later small ones into
/// singleton batches, and splitting oversize requests into sub-batches —
/// and slices each batched output back into per-request tensors in
/// submission order. Row-independence of the
/// forward (all mixing happens within a window) makes a coalesced answer
/// bit-identical to a solo one.
///
/// When a batch fails or produces a non-finite slice, only the affected
/// requests walk the degradation ladder — solo re-runs with bounded
/// retry/backoff, then the injected tape fallback, then a typed error —
/// while their batch neighbours keep their answers.
///
/// [`submit`]: Self::submit
/// [`flush`]: Self::flush
pub struct MicroBatcher {
    plan: Rc<ExecPlan>,
    max_batch: usize,
    queue_limit: usize,
    retries: usize,
    admission: AdmissionPolicy,
    tape_fallback: Option<TapeFallback>,
    pending: Vec<Pending>,
}

impl MicroBatcher {
    /// Batcher over `plan` packing at most `max_batch` windows per forward.
    ///
    /// Defaults: queue bound 1024, one solo retry, admission policy that
    /// only checks shape, no tape fallback.
    ///
    /// # Errors
    /// [`ServeError::Config`] when `max_batch` is zero.
    pub fn new(plan: Rc<ExecPlan>, max_batch: usize) -> Result<Self, ServeError> {
        if max_batch == 0 {
            return Err(ServeError::Config("max_batch must be at least 1".into()));
        }
        Ok(Self {
            plan,
            max_batch,
            queue_limit: 1024,
            retries: 1,
            admission: AdmissionPolicy::default(),
            tape_fallback: None,
            pending: Vec::new(),
        })
    }

    /// Bound the pending queue; requests past the bound are shed at
    /// submit with [`ServeError::QueueFull`].
    ///
    /// # Errors
    /// [`ServeError::Config`] when `limit` is zero.
    pub fn with_queue_limit(mut self, limit: usize) -> Result<Self, ServeError> {
        if limit == 0 {
            return Err(ServeError::Config("queue limit must be at least 1".into()));
        }
        self.queue_limit = limit;
        Ok(self)
    }

    /// Replace the admission policy.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Number of solo re-run retries (beyond the first solo attempt) a
    /// quarantined request gets before falling through to the tape.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Install the tape fallback (degradation ladder rung 3).
    pub fn with_tape_fallback(mut self, fallback: TapeFallback) -> Self {
        self.tape_fallback = Some(fallback);
        self
    }

    /// Queue one request (`[b_i, N, T, F]`) with no deadline.
    ///
    /// # Errors
    /// See [`submit_with_deadline`](Self::submit_with_deadline).
    pub fn submit(&mut self, x: Tensor) -> Result<(), ServeError> {
        self.submit_with_deadline(x, None)
    }

    /// Queue one request carrying a deadline budget in milliseconds: if it
    /// is still queued `deadline_ms` after submission, the next flush
    /// sheds it instead of running it. A negative budget is treated as
    /// already expired (deterministic shedding for tests).
    ///
    /// # Errors
    /// [`ServeError::QueueFull`] when the pending queue is at its bound;
    /// [`ServeError::BadShape`] / [`ServeError::NonFinite`] /
    /// [`ServeError::TooMissing`] from admission control.
    pub fn submit_with_deadline(
        &mut self,
        mut x: Tensor,
        deadline_ms: Option<f64>,
    ) -> Result<(), ServeError> {
        counters::record_submitted();
        if self.pending.len() >= self.queue_limit {
            counters::record_queue_shed();
            return Err(ServeError::QueueFull {
                limit: self.queue_limit,
            });
        }
        let want = [
            self.plan.nodes(),
            self.plan.input_len(),
            self.plan.features(),
        ];
        let report = self
            .admission
            .admit(&mut x, want)
            .inspect_err(|e| match e {
                ServeError::BadShape { .. } => counters::record_rejected_shape(),
                ServeError::NonFinite { .. } => counters::record_rejected_non_finite(),
                ServeError::TooMissing { .. } => counters::record_rejected_missing(),
                _ => {}
            })?;
        if report.masked > 0 {
            counters::record_masked_window();
        }
        counters::record_admitted();
        self.pending.push(Pending {
            x,
            deadline_ms,
            queued: Stopwatch::start(),
        });
        Ok(())
    }

    /// Front-end enqueue path: queue a request whose admission (and
    /// `submitted` counter bump) the caller already performed — the
    /// serving front runs admission itself so it can consult the result
    /// cache on the *sanitized* window before deciding to queue at all.
    ///
    /// `queued` carries the stopwatch started at front-end submission, so
    /// deadline budgets include time spent in the shard channel.
    ///
    /// # Errors
    /// [`ServeError::QueueFull`] when the pending queue is at its bound.
    pub(crate) fn enqueue_presanitized(
        &mut self,
        x: Tensor,
        deadline_ms: Option<f64>,
        queued: Stopwatch,
    ) -> Result<(), ServeError> {
        if self.pending.len() >= self.queue_limit {
            counters::record_queue_shed();
            return Err(ServeError::QueueFull {
                limit: self.queue_limit,
            });
        }
        counters::record_admitted();
        self.pending.push(Pending {
            x,
            deadline_ms,
            queued,
        });
        Ok(())
    }

    /// Number of queued requests.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// `Some(error)` when `p`'s deadline budget is already spent.
    fn expired(p: &Pending) -> Option<ServeError> {
        let deadline = p.deadline_ms?;
        let waited_ms = p.queued.elapsed_ms();
        if deadline < 0.0 || waited_ms > deadline {
            counters::record_deadline_shed();
            Some(ServeError::DeadlineExpired {
                waited_ms,
                deadline_ms: deadline,
            })
        } else {
            None
        }
    }

    /// Run every queued request and return one `Result` per request, in
    /// submission order: the forecast (`[b_i, N, Q]`), or the typed error
    /// that request — and only that request — hit.
    ///
    /// Deadlines are checked twice: once up front (rung 0) and again
    /// immediately before each group executes, so a request that waited
    /// behind slow earlier groups in the same flush is shed instead of
    /// returning a forecast after its budget.
    pub fn flush(&mut self) -> Vec<Result<Tensor, ServeError>> {
        let requests = std::mem::take(&mut self.pending);
        let mut out: Vec<Option<Result<Tensor, ServeError>>> =
            requests.iter().map(|_| None).collect();

        // Rung 0: shed what already missed its deadline — running it
        // would only steal capacity from requests that can still answer
        // in time.
        let mut live: Vec<(usize, Pending)> = Vec::with_capacity(requests.len());
        for (i, p) in requests.into_iter().enumerate() {
            if let Some(e) = Self::expired(&p) {
                out[i] = Some(Err(e));
                continue;
            }
            live.push((i, p));
        }

        // Greedy skip-ahead packing: each unpacked request seeds a group,
        // then every *later* unpacked request that still fits joins it —
        // a large request no longer strands the small ones behind it into
        // singleton batches. Group members stay in submission order, so
        // the concat (and therefore the answer bits) is deterministic.
        let mut used = vec![false; live.len()];
        for seed in 0..live.len() {
            if used[seed] {
                continue;
            }
            used[seed] = true;
            let b0 = live[seed].1.x.shape()[0];
            if b0 > self.max_batch {
                let (i, p) = &live[seed];
                // Re-check the deadline immediately before executing:
                // earlier groups in this same flush may have eaten the
                // budget.
                out[*i] = Some(match Self::expired(p) {
                    Some(e) => Err(e),
                    None => {
                        counters::record_oversize_split();
                        self.run_oversize(&p.x)
                    }
                });
                continue;
            }
            let mut members = vec![seed];
            let mut total = b0;
            for later in seed + 1..live.len() {
                if used[later] {
                    continue;
                }
                let b = live[later].1.x.shape()[0];
                if total + b <= self.max_batch {
                    used[later] = true;
                    members.push(later);
                    total += b;
                }
            }
            // Deadline re-check at execution time (see above); survivors
            // run as one coalesced group.
            let mut group: Vec<&(usize, Pending)> = Vec::with_capacity(members.len());
            for &m in &members {
                let (i, p) = &live[m];
                match Self::expired(p) {
                    Some(e) => out[*i] = Some(Err(e)),
                    None => group.push(&live[m]),
                }
            }
            if !group.is_empty() {
                self.exec_group(&group, &mut out);
            }
        }

        // invariant: every request index was answered by exactly one of
        // the shed, oversize, or group paths above.
        out.into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }

    /// Execute one coalesced group and write per-request answers. A batch
    /// failure or a poisoned output slice quarantines only the affected
    /// requests into the solo ladder; healthy neighbours keep their
    /// coalesced answers.
    fn exec_group(
        &self,
        group: &[&(usize, Pending)],
        out: &mut [Option<Result<Tensor, ServeError>>],
    ) {
        let batch_result = if group.len() == 1 {
            self.plan.try_run(&group[0].1.x)
        } else {
            let parts: Vec<&Tensor> = group.iter().map(|(_, p)| &p.x).collect();
            self.plan.try_run(&ops::concat(&parts, 0))
        };
        match batch_result {
            Ok(y) => {
                let mut off = 0;
                for (i, p) in group {
                    let b = p.x.shape()[0];
                    let slice = ops::slice(&y, 0, off, off + b);
                    off += b;
                    if slice.has_non_finite() {
                        counters::record_poisoned_output();
                        out[*i] = Some(self.quarantine(p));
                    } else {
                        out[*i] = Some(Ok(slice));
                    }
                }
            }
            Err(_) => {
                counters::record_batch_failure();
                for (i, p) in group {
                    out[*i] = Some(self.quarantine(p));
                }
            }
        }
    }

    /// Degradation ladder for one quarantined request: solo re-runs with
    /// bounded retry/backoff, then the tape fallback, then a typed error.
    fn quarantine(&self, p: &Pending) -> Result<Tensor, ServeError> {
        counters::record_quarantined();
        match self.run_attempts(&p.x) {
            Ok(y) => {
                counters::record_degraded_solo();
                Ok(y)
            }
            Err(e) => self.tape_rung(&p.x, e),
        }
    }

    /// Oversize request: run it as `max_batch`-sized sub-batches (each
    /// through the bounded-retry runner) and concatenate the answers, so
    /// no single forward ever exceeds the cap.
    fn run_oversize(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        let b = x.shape()[0];
        let mut parts = Vec::with_capacity(b.div_ceil(self.max_batch));
        let mut off = 0;
        while off < b {
            let hi = (off + self.max_batch).min(b);
            let chunk = ops::slice(x, 0, off, hi);
            match self.run_attempts(&chunk) {
                Ok(y) => parts.push(y),
                Err(e) => return self.tape_rung(x, e),
            }
            off = hi;
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        Ok(ops::concat(&refs, 0))
    }

    /// Run `x` solo with bounded retries and exponential backoff,
    /// accepting only a finite output.
    fn run_attempts(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        let attempts = 1 + self.retries;
        let mut poisoned = false;
        let mut last_cause = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                counters::record_solo_retry();
                // Bounded backoff before hitting the plan again: a
                // transient fault gets a breath, a persistent one costs at
                // most a few milliseconds before the next rung.
                let backoff_us = 100u64 << (attempt - 1).min(4);
                std::thread::sleep(std::time::Duration::from_micros(backoff_us));
            }
            match self.plan.try_run(x) {
                Ok(y) if !y.has_non_finite() => return Ok(y),
                Ok(_) => {
                    counters::record_poisoned_output();
                    poisoned = true;
                }
                Err(e) => {
                    poisoned = false;
                    last_cause = e.to_string();
                }
            }
        }
        if poisoned {
            Err(ServeError::PoisonedOutput { attempts })
        } else {
            Err(ServeError::PlanExec {
                attempts,
                cause: last_cause,
            })
        }
    }

    /// Final ladder rung: answer from the tape fallback if one is
    /// installed and produces a finite forecast, else surface `err`.
    fn tape_rung(&self, x: &Tensor, err: ServeError) -> Result<Tensor, ServeError> {
        if let Some(fallback) = &self.tape_fallback {
            if let Some(y) = fallback(x) {
                if !y.has_non_finite() {
                    counters::record_degraded_tape();
                    return Ok(y);
                }
                counters::record_poisoned_output();
            }
        }
        counters::record_failed_request();
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockPlan, PlanSpec};
    use cts_graph::SensorGraph;
    use cts_nn::{fault, Linear};
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

    fn request(rng: &mut impl Rng, b: usize) -> Tensor {
        init::uniform(rng, [b, 3, 4, 2], -1.0, 1.0)
    }

    #[test]
    fn coalesced_results_match_solo_runs() {
        let mut rng = SmallRng::seed_from_u64(0);
        let plan = plan(&mut rng);
        let requests: Vec<Tensor> = (0..5).map(|_| request(&mut rng, 1)).collect();
        let mut batcher = MicroBatcher::new(Rc::clone(&plan), 4).unwrap();
        for r in &requests {
            batcher.submit(r.clone()).unwrap();
        }
        assert_eq!(batcher.pending(), 5);
        let coalesced = batcher.flush();
        assert_eq!(batcher.pending(), 0);
        assert_eq!(coalesced.len(), 5);
        for (r, y) in requests.iter().zip(&coalesced) {
            let y = y.as_ref().unwrap();
            let solo = plan.try_run(r).unwrap();
            assert_eq!(y.shape(), &[1, 3, 5]);
            assert!(solo.approx_eq(y, 0.0), "coalesced forecast drifted");
        }
    }

    #[test]
    fn respects_max_batch_and_order() {
        let mut rng = SmallRng::seed_from_u64(1);
        let plan = plan(&mut rng);
        let mut batcher = MicroBatcher::new(plan, 2).unwrap();
        let a = request(&mut rng, 2);
        let b = request(&mut rng, 1);
        batcher.submit(a).unwrap();
        batcher.submit(b).unwrap();
        let out = batcher.flush();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].as_ref().unwrap().shape(), &[2, 3, 5]);
        assert_eq!(out[1].as_ref().unwrap().shape(), &[1, 3, 5]);
    }

    #[test]
    fn config_and_admission_errors_are_typed() {
        let mut rng = SmallRng::seed_from_u64(2);
        let plan = plan(&mut rng);
        assert!(matches!(
            MicroBatcher::new(Rc::clone(&plan), 0),
            Err(ServeError::Config(_))
        ));
        let mut batcher = MicroBatcher::new(plan, 4).unwrap();
        let err = batcher.submit(Tensor::zeros([1, 3, 9, 2])).unwrap_err();
        assert!(matches!(err, ServeError::BadShape { .. }));
        let mut nan = request(&mut rng, 1);
        nan.data_mut()[0] = f32::NAN;
        assert!(matches!(
            batcher.submit(nan),
            Err(ServeError::NonFinite { count: 1 })
        ));
        assert_eq!(batcher.pending(), 0, "rejected requests were queued");
    }

    #[test]
    fn oversize_request_splits_under_cap_and_matches_solo() {
        let mut rng = SmallRng::seed_from_u64(3);
        let plan = plan(&mut rng);
        let mut batcher = MicroBatcher::new(Rc::clone(&plan), 2).unwrap();
        let big = request(&mut rng, 5);
        fault::arm(fault::FaultPlan::default()); // reset max-batch tracker
        let solo = plan.try_run(&big).unwrap();
        batcher.submit(big).unwrap();
        let out = batcher.flush();
        let y = out[0].as_ref().unwrap();
        assert_eq!(y.shape(), &[5, 3, 5]);
        assert!(y.approx_eq(&solo, 0.0), "split answer drifted");
        assert!(
            fault::max_batch_rows() <= 5,
            "tracker saw {}",
            fault::max_batch_rows()
        );
        // The split chunks (2+2+1) never exceeded the cap — only the
        // pre-submit solo reference ran the full 5 rows at once.
        fault::disarm();
    }

    #[test]
    fn queue_bound_sheds_and_deadline_sheds() {
        let mut rng = SmallRng::seed_from_u64(4);
        let plan = plan(&mut rng);
        let mut batcher = MicroBatcher::new(plan, 4)
            .unwrap()
            .with_queue_limit(2)
            .unwrap();
        batcher.submit(request(&mut rng, 1)).unwrap();
        batcher
            .submit_with_deadline(request(&mut rng, 1), Some(-1.0))
            .unwrap();
        let shed = batcher.submit(request(&mut rng, 1)).unwrap_err();
        assert_eq!(shed, ServeError::QueueFull { limit: 2 });
        let out = batcher.flush();
        assert!(out[0].is_ok());
        assert!(matches!(
            out[1],
            Err(ServeError::DeadlineExpired { deadline_ms, .. }) if deadline_ms == -1.0
        ));
    }

    #[test]
    fn batch_failure_quarantines_and_neighbours_stay_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(5);
        let plan = plan(&mut rng);
        let requests: Vec<Tensor> = (0..3).map(|_| request(&mut rng, 1)).collect();
        let solos: Vec<Tensor> = requests.iter().map(|r| plan.try_run(r).unwrap()).collect();
        let mut batcher = MicroBatcher::new(Rc::clone(&plan), 4).unwrap();
        for r in &requests {
            batcher.submit(r.clone()).unwrap();
        }
        // Fail the coalesced batch (run 0); the three solo re-runs succeed.
        fault::arm(fault::FaultPlan {
            fail_plan_run_at: Some(0),
            ..fault::FaultPlan::default()
        });
        let out = batcher.flush();
        fault::disarm();
        for (solo, y) in solos.iter().zip(&out) {
            assert!(y.as_ref().unwrap().approx_eq(solo, 0.0), "answer drifted");
        }
    }

    #[test]
    fn exhausted_ladder_falls_back_to_tape_then_errors() {
        let mut rng = SmallRng::seed_from_u64(6);
        let plan = plan(&mut rng);
        let canned = Tensor::zeros([1, 3, 5]);
        let fallback_answer = canned.clone();
        let mut batcher = MicroBatcher::new(Rc::clone(&plan), 4)
            .unwrap()
            .with_retries(1)
            .with_tape_fallback(Box::new(move |_| Some(fallback_answer.clone())));
        batcher.submit(request(&mut rng, 1)).unwrap();
        // Batch + solo + retry all fail → tape answers.
        fault::arm(fault::FaultPlan {
            fail_next_plan_runs: 3,
            ..fault::FaultPlan::default()
        });
        let out = batcher.flush();
        assert!(out[0].as_ref().unwrap().approx_eq(&canned, 0.0));
        // Without a fallback the same storm surfaces the typed error.
        let mut bare = MicroBatcher::new(plan, 4).unwrap().with_retries(1);
        bare.submit(request(&mut rng, 1)).unwrap();
        fault::arm(fault::FaultPlan {
            fail_next_plan_runs: 3,
            ..fault::FaultPlan::default()
        });
        let out = bare.flush();
        fault::disarm();
        assert!(matches!(
            out[0],
            Err(ServeError::PlanExec { attempts: 2, .. })
        ));
    }

    #[test]
    fn poisoned_slice_quarantines_only_that_request() {
        let mut rng = SmallRng::seed_from_u64(7);
        let plan = plan(&mut rng);
        let requests: Vec<Tensor> = (0..2).map(|_| request(&mut rng, 1)).collect();
        let solos: Vec<Tensor> = requests.iter().map(|r| plan.try_run(r).unwrap()).collect();
        let mut batcher = MicroBatcher::new(Rc::clone(&plan), 4).unwrap();
        for r in &requests {
            batcher.submit(r.clone()).unwrap();
        }
        let _gate = crate::testlock::counters();
        cts_obs::serve::reset();
        // Poison the coalesced run's first element: request 0's slice is
        // non-finite, request 1's is clean and must keep its answer.
        fault::arm(fault::FaultPlan {
            nan_output_at_run: Some(0),
            ..fault::FaultPlan::default()
        });
        let out = batcher.flush();
        fault::disarm();
        assert!(out[0].as_ref().unwrap().approx_eq(&solos[0], 0.0));
        assert!(out[1].as_ref().unwrap().approx_eq(&solos[1], 0.0));
        let counters = cts_obs::serve::snapshot();
        assert_eq!(counters.quarantined, 1, "healthy neighbour quarantined");
        assert_eq!(counters.degraded_solo, 1);
    }
}

//! Integration suite for the concurrent serving front-end.
//!
//! Exercises the properties the front-end exists to provide:
//!
//! 1. **Replica parity** — forecasts served by worker-thread plan
//!    replicas are bit-identical to a main-thread replica built from the
//!    same seed, and answers come back in ticket order.
//! 2. **Exact caching** — a repeated window is answered from the result
//!    cache bit-identically to a fresh `try_run`, expires once the window
//!    origin advances past the forecast horizon, and is LRU-evicted under
//!    the byte cap.
//! 3. **Multi-model routing** — requests route by model id through each
//!    shard's registry; unknown ids get a typed error, not a panic.
//! 4. **Per-shard degradation** — the PR-7 ladder (quarantine, solo
//!    retries, tape fallback) works unchanged *inside a worker thread*,
//!    with faults armed thread-locally by the shard factory.
//! 5. **Typed init failure** — a factory that fails, panics, or fails its
//!    canary tears the front down with a typed error instead of hanging.

mod common;

use common::{bitwise_eq, fixture, tape_forward};
use cts_nn::fault;
use cts_obs::serve as counters;
use cts_runtime::{FrontConfig, ServeError, ServeFront, ShardCanary, ShardFactory, ShardModel};
use cts_tensor::Tensor;
use std::sync::{Arc, Mutex};

/// Serializes the tests: the serve counters are process-global.
static GATE: Mutex<()> = Mutex::new(());

/// Factory serving one model id `"m"` from the given fixture seed.
fn single_model_factory(seed: u64) -> ShardFactory {
    Arc::new(move |_shard| {
        let (_model, plan, _pool) = fixture(seed);
        Ok(vec![ShardModel {
            id: "m".into(),
            plan,
            tape_fallback: None,
            canary: None,
        }])
    })
}

#[test]
fn worker_replicas_answer_bit_identically_in_ticket_order() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_model, local, pool) = fixture(20);
    let cfg = FrontConfig {
        threads: 3,
        max_batch: 4,
        ..FrontConfig::default()
    };
    let mut front = ServeFront::new(cfg, single_model_factory(20)).expect("front starts");
    counters::reset();
    let tickets: Vec<u64> = pool
        .iter()
        .map(|x| front.submit("m", x.clone()).expect("submit"))
        .collect();
    let out = front.flush().expect("flush");
    assert_eq!(out.len(), pool.len());
    let got: Vec<u64> = out.iter().map(|(t, _)| *t).collect();
    assert_eq!(got, tickets, "answers not in ticket order");
    for (i, ((_, result), x)) in out.iter().zip(&pool).enumerate() {
        let y = result
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        let reference = local.try_run(x).expect("local reference");
        assert!(
            bitwise_eq(y, &reference),
            "request {i} drifted from the main-thread replica"
        );
    }
    // Shard depth gauges saw the traffic and drained back to zero.
    let rows = counters::shard_rows();
    assert!(!rows.is_empty(), "no shard recorded queue depth");
    assert!(rows.iter().all(|&(_, depth, peak)| depth == 0 && peak >= 1));
    let snap = counters::snapshot();
    assert_eq!(snap.submitted, pool.len() as u64);
    assert_eq!(snap.admitted, pool.len() as u64);
    assert_eq!(snap.failed_requests, 0);
}

#[test]
fn submitting_thread_arena_stops_growing_after_warm_up() {
    // Every request crosses threads twice: the window is cloned out of
    // this thread's arena and freed on the shard, and the answer is
    // taken on the shard and freed here. Neither thread takes the other's
    // size class back, so a free list that kept whatever was freed into
    // it would grow with every request served.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_model, _local, pool) = fixture(22);
    let cfg = FrontConfig {
        threads: 1,
        max_batch: 4,
        ..FrontConfig::default()
    };
    let mut front = ServeFront::new(cfg, single_model_factory(22)).expect("front starts");
    let mut serve_rounds = |rounds: usize| {
        for _ in 0..rounds {
            for x in &pool {
                front.submit("m", x.clone()).expect("submit");
            }
            for (ticket, answer) in front.flush().expect("flush") {
                answer.unwrap_or_else(|e| panic!("request {ticket} failed: {e}"));
            }
        }
    };
    serve_rounds(4);
    let warm = cts_tensor::arena::stats().resident_floats;
    serve_rounds(40);
    let after = cts_tensor::arena::stats().resident_floats;
    assert!(
        after <= warm,
        "submitting thread's arena grew from {warm} to {after} floats after warm-up"
    );
}

#[test]
fn cache_hits_are_bit_identical_expire_past_horizon_and_evict_under_cap() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_model, local, pool) = fixture(21);
    let w0 = pool[0].clone();
    let w1 = pool[1].clone();
    let fresh0 = local.try_run(&w0).expect("reference");
    let q = local.horizon() as u64;
    // Cap sized so exactly one entry fits: input bits + output bits.
    let entry_bytes = (w0.len() + fresh0.len()) * 4;
    let cfg = FrontConfig {
        threads: 1,
        cache_bytes: entry_bytes + 16,
        ..FrontConfig::default()
    };
    let mut front = ServeFront::new(cfg, single_model_factory(21)).expect("front starts");
    counters::reset();

    // Miss, then hit: the hit is bit-identical to a fresh try_run.
    front.submit_with("m", w0.clone(), None, 1).expect("submit");
    let out = front.flush().expect("flush");
    assert!(bitwise_eq(
        out[0].1.as_ref().expect("first answer"),
        &fresh0
    ));
    front.submit_with("m", w0.clone(), None, 1).expect("submit");
    let out = front.flush().expect("flush");
    assert!(
        bitwise_eq(out[0].1.as_ref().expect("cached answer"), &fresh0),
        "cache hit is not bit-identical to a fresh run"
    );
    let snap = counters::snapshot();
    assert_eq!(snap.cache_hit, 1);
    assert_eq!(snap.cache_miss, 1);
    // A cache hit is still an admitted request — conservation holds.
    assert_eq!(snap.submitted, snap.admitted);

    // Horizon TTL: once the window origin advances past the forecast
    // horizon Q, the entry has expired and the same window misses.
    front
        .submit_with("m", w0.clone(), None, 1 + q)
        .expect("submit");
    let out = front.flush().expect("flush");
    assert!(bitwise_eq(out[0].1.as_ref().expect("recomputed"), &fresh0));
    let snap = counters::snapshot();
    assert_eq!(snap.cache_expired, 1, "TTL did not expire the entry");
    assert_eq!(snap.cache_hit, 1, "expired entry still answered");

    // Byte cap: inserting a second window evicts the LRU first one.
    front
        .submit_with("m", w1.clone(), None, 1 + q)
        .expect("submit");
    let _ = front.flush().expect("flush");
    assert_eq!(
        counters::snapshot().cache_evict,
        1,
        "byte cap did not evict"
    );
}

#[test]
fn requests_route_by_model_id_and_unknown_ids_get_typed_errors() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let factory: ShardFactory = Arc::new(|_shard| {
        let (_ma, plan_a, _) = fixture(22);
        let (_mb, plan_b, _) = fixture(23);
        Ok(vec![
            ShardModel {
                id: "autocts-a".into(),
                plan: plan_a,
                tape_fallback: None,
                canary: None,
            },
            ShardModel {
                id: "autocts-b".into(),
                plan: plan_b,
                tape_fallback: None,
                canary: None,
            },
        ])
    });
    let (_la, local_a, pool) = fixture(22);
    let (_lb, local_b, _) = fixture(23);
    let cfg = FrontConfig {
        threads: 2,
        ..FrontConfig::default()
    };
    let mut front = ServeFront::new(cfg, factory).expect("front starts");
    assert_eq!(
        front.models(),
        ["autocts-a".to_string(), "autocts-b".to_string()]
    );
    counters::reset();
    let ta = front
        .submit("autocts-a", pool[0].clone())
        .expect("submit a");
    let tb = front
        .submit("autocts-b", pool[0].clone())
        .expect("submit b");
    let tg = front
        .submit("ghost", pool[0].clone())
        .expect("submit ghost");
    let out = front.flush().expect("flush");
    let answer = |t: u64| {
        &out.iter()
            .find(|(ticket, _)| *ticket == t)
            .expect("ticket answered")
            .1
    };
    // The same window, two models, two different (correct) forecasts.
    let ya = answer(ta).as_ref().expect("model a answers");
    let yb = answer(tb).as_ref().expect("model b answers");
    assert!(bitwise_eq(ya, &local_a.try_run(&pool[0]).expect("ref a")));
    assert!(bitwise_eq(yb, &local_b.try_run(&pool[0]).expect("ref b")));
    assert!(!bitwise_eq(ya, yb), "two models returned identical bits");
    assert!(matches!(
        answer(tg),
        Err(ServeError::UnknownModel { id }) if id == "ghost"
    ));
    let snap = counters::snapshot();
    assert_eq!(snap.unknown_model, 1);
    // Unknown-model requests are counted instead of `submitted`.
    assert_eq!(snap.submitted, 2);
}

#[test]
fn shard_local_faults_walk_the_ladder_to_the_tape_inside_the_worker() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Fault hooks are thread-local, so the factory arms them *on the
    // worker thread* — exactly the per-thread init hook it exists to be.
    let factory: ShardFactory = Arc::new(|_shard| {
        let (model, plan, _pool) = fixture(24);
        fault::arm(fault::FaultPlan {
            fail_next_plan_runs: 2, // batch run + solo re-run both die
            ..fault::FaultPlan::default()
        });
        Ok(vec![ShardModel {
            id: "m".into(),
            plan,
            tape_fallback: Some(Box::new(move |x| Some(tape_forward(&model, x)))),
            canary: None,
        }])
    });
    let (local_model, _plan, pool) = fixture(24);
    let reference = tape_forward(&local_model, &pool[0]);
    let cfg = FrontConfig {
        threads: 1,
        retries: 0,
        ..FrontConfig::default()
    };
    let mut front = ServeFront::new(cfg, factory).expect("front starts");
    counters::reset();
    front.submit("m", pool[0].clone()).expect("submit");
    let out = front.flush().expect("flush");
    let y = out[0].1.as_ref().expect("tape rung answers");
    assert!(bitwise_eq(y, &reference), "worker tape fallback drifted");
    let snap = counters::snapshot();
    assert_eq!(snap.batch_failures, 1);
    assert_eq!(snap.degraded_tape, 1);
    assert_eq!(snap.failed_requests, 0);

    // Deadlines travel with the envelope: an already-expired budget is
    // shed on the worker with the typed error.
    front
        .submit_with("m", pool[1].clone(), Some(-1.0), 0)
        .expect("submit");
    let out = front.flush().expect("flush");
    assert!(matches!(out[0].1, Err(ServeError::DeadlineExpired { .. })));
}

#[test]
fn canary_gate_rejects_a_diverging_replica_at_startup() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // A healthy replica admitted against its own tape reference serves.
    let healthy: ShardFactory = Arc::new(|_shard| {
        let (model, plan, pool) = fixture(25);
        let probe = pool[0].clone();
        let reference = tape_forward(&model, &probe);
        Ok(vec![ShardModel {
            id: "m".into(),
            plan,
            tape_fallback: None,
            canary: Some(ShardCanary {
                probe,
                reference,
                tol: 0.0,
            }),
        }])
    });
    let mut front = ServeFront::new(FrontConfig::default(), healthy).expect("canary passes");
    let (_m, local, pool) = fixture(25);
    front.submit("m", pool[0].clone()).expect("submit");
    let out = front.flush().expect("flush");
    assert!(bitwise_eq(
        out[0].1.as_ref().expect("answer"),
        &local.try_run(&pool[0]).expect("reference")
    ));
    drop(front);

    // A replica that diverges from its reference never starts serving:
    // `new` fails typed, and no worker is left behind.
    let diverging: ShardFactory = Arc::new(|_shard| {
        let (model, plan, pool) = fixture(26);
        let probe = pool[0].clone();
        let mut bits = tape_forward(&model, &probe);
        if let Some(v) = bits.data_mut().first_mut() {
            *v += 1.0; // corrupt the reference → replica "diverges"
        }
        Ok(vec![ShardModel {
            id: "m".into(),
            plan,
            tape_fallback: None,
            canary: Some(ShardCanary {
                probe,
                reference: bits,
                tol: 1e-6,
            }),
        }])
    });
    assert!(matches!(
        ServeFront::new(FrontConfig::default(), diverging),
        Err(ServeError::CanaryRejected { .. })
    ));
}

#[test]
fn hostile_traffic_is_typed_and_the_front_survives() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_model, local, pool) = fixture(27);
    let cfg = FrontConfig {
        threads: 2,
        ..FrontConfig::default()
    };
    let mut front = ServeFront::new(cfg, single_model_factory(27)).expect("front starts");
    counters::reset();
    let bad_shape = front
        .submit("m", Tensor::zeros([1, 2, 3, 4]))
        .expect("submit");
    let mut nan = pool[0].clone();
    nan.data_mut()[0] = f32::NAN;
    let non_finite = front.submit("m", nan).expect("submit");
    let good = front.submit("m", pool[0].clone()).expect("submit");
    let out = front.flush().expect("flush");
    let answer = |t: u64| {
        &out.iter()
            .find(|(ticket, _)| *ticket == t)
            .expect("ticket answered")
            .1
    };
    assert!(matches!(
        answer(bad_shape),
        Err(ServeError::BadShape { .. })
    ));
    assert!(matches!(
        answer(non_finite),
        Err(ServeError::NonFinite { .. })
    ));
    assert!(bitwise_eq(
        answer(good).as_ref().expect("healthy request survives"),
        &local.try_run(&pool[0]).expect("reference")
    ));
    let snap = counters::snapshot();
    assert_eq!(snap.rejected_shape, 1);
    assert_eq!(snap.rejected_non_finite, 1);
    assert_eq!(
        snap.submitted,
        snap.admitted + snap.rejected_shape + snap.rejected_non_finite
    );
}

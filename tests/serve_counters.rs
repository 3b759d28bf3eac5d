//! Accounting invariant for the serve counters.
//!
//! Every request offered to the serving layer must be accounted for in
//! exactly one admission bucket:
//!
//! ```text
//! submitted == admitted + rejected_shape + rejected_non_finite
//!            + rejected_missing + queue_shed
//! ```
//!
//! `unknown_model` is counted *instead of* `submitted` (routing precedes
//! admission), cache hits count as `admitted`, and `deadline_shed`
//! applies to already-admitted requests — none of them may break the
//! identity. This test drives a randomized submit/flush sequence through
//! both the raw `MicroBatcher` and the threaded `ServeFront` (hostile
//! shapes, NaN floods, sentinel-heavy windows, queue overflow, unknown
//! models, repeated windows for cache hits, expired deadlines) and then
//! checks the books. It runs alone in its own binary so no other test's
//! counter traffic can leak into the ledger.

mod common;

use common::fixture;
use cts_obs::serve as counters;
use cts_runtime::{
    AdmissionPolicy, FrontConfig, MicroBatcher, ServeFront, ShardFactory, ShardModel,
};
use cts_tensor::Tensor;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::rc::Rc;
use std::sync::Arc;

#[test]
fn conservation_invariant_holds_across_a_randomized_sequence() {
    counters::reset();
    let mut rng = SmallRng::seed_from_u64(99);

    // Phase 1: raw batcher with a null-sentinel admission policy and a
    // tight queue, so TooMissing and QueueFull both fire.
    let (_model, plan, pool) = fixture(30);
    let (n, t, f) = (plan.nodes(), plan.input_len(), plan.features());
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), 4)
        .expect("batcher")
        .with_queue_limit(2)
        .expect("queue limit")
        .with_admission(AdmissionPolicy::new(Some(0.0), 0.5).expect("policy"));
    for _ in 0..4 {
        let burst = rng.gen_range(1..6);
        for _ in 0..burst {
            match rng.gen_range(0..4) {
                0 => {
                    // Healthy window (sheds QueueFull past the bound).
                    let w = &pool[rng.gen_range(0..pool.len())];
                    let _ = batcher.submit(w.clone());
                }
                1 => {
                    // Wrong shape.
                    let _ = batcher.submit(Tensor::zeros([1, n + 1, t, f]));
                }
                2 => {
                    // All-sentinel window: over the 50% missing cap.
                    let _ = batcher.submit(Tensor::zeros([1, n, t, f]));
                }
                _ => {
                    // Admitted, then shed at flush — deadline_shed must
                    // stay outside the admission identity.
                    let w = &pool[rng.gen_range(0..pool.len())];
                    let _ = batcher.submit_with_deadline(w.clone(), Some(-1.0));
                }
            }
        }
        let _ = batcher.flush();
    }
    // Deterministic top-ups so every batcher-side bucket fires at least
    // once regardless of what the random draw produced.
    let _ = batcher.submit(Tensor::zeros([1, n + 1, t, f])); // rejected_shape
    let _ = batcher.submit(Tensor::zeros([1, n, t, f])); // rejected_missing
    let _ = batcher.submit_with_deadline(pool[0].clone(), Some(-1.0)); // deadline_shed
    for w in pool.iter().take(2) {
        let _ = batcher.submit(w.clone()); // second one overflows the bound
    }
    let _ = batcher.flush();

    // Phase 2: threaded front with the default (shape-only) policy and
    // the result cache on, so NonFinite rejections, unknown models, and
    // cache hits all flow through the same books.
    let factory: ShardFactory = Arc::new(|_shard| {
        let (_m, plan, _pool) = fixture(30);
        Ok(vec![ShardModel {
            id: "m".into(),
            plan,
            tape_fallback: None,
            canary: None,
        }])
    });
    let cfg = FrontConfig {
        threads: 2,
        cache_bytes: 8 << 20,
        ..FrontConfig::default()
    };
    let mut front = ServeFront::new(cfg, factory).expect("front starts");
    for round in 0..4u64 {
        let burst = rng.gen_range(1..6);
        for _ in 0..burst {
            match rng.gen_range(0..4) {
                0 | 1 => {
                    // Healthy window; repeats across rounds hit the cache.
                    let w = &pool[rng.gen_range(0..2)];
                    let _ = front.submit_with("m", w.clone(), None, round);
                }
                2 => {
                    let mut nan = pool[0].clone();
                    nan.data_mut()[0] = f32::NAN;
                    let _ = front.submit("m", nan);
                }
                _ => {
                    let w = &pool[rng.gen_range(0..pool.len())];
                    let _ = front.submit("ghost", w.clone());
                }
            }
        }
        front.flush().expect("flush");
    }
    // Front-side top-ups: an unmaskable NaN, an unknown model, and a
    // guaranteed cache hit (same window, same origin, two flushes; the
    // origin is past every random-phase one so the entry cannot have
    // TTL-expired between the insert and the repeat).
    let mut nan = pool[0].clone();
    nan.data_mut()[0] = f32::NAN;
    let _ = front.submit("m", nan);
    let _ = front.submit("ghost", pool[0].clone());
    let _ = front.submit_with("m", pool[3].clone(), None, 10);
    front.flush().expect("flush");
    let _ = front.submit_with("m", pool[3].clone(), None, 10);
    front.flush().expect("flush");
    drop(front);

    let snap = counters::snapshot();
    // The sequence actually exercised every bucket it claims to balance.
    assert!(snap.admitted > 0, "no request was admitted");
    assert!(snap.rejected_shape > 0, "no shape rejection fired");
    assert!(snap.rejected_missing > 0, "no missing-cap rejection fired");
    assert!(
        snap.rejected_non_finite > 0,
        "no non-finite rejection fired"
    );
    assert!(snap.queue_shed > 0, "the queue bound never shed");
    assert!(snap.deadline_shed > 0, "no deadline ever expired");
    assert!(snap.unknown_model > 0, "no unknown-model request fired");
    assert!(snap.cache_hit > 0, "no request ever hit the cache");
    // The books balance: every submitted request landed in exactly one
    // admission bucket, regardless of which layer handled it.
    assert_eq!(
        snap.submitted,
        snap.admitted
            + snap.rejected_shape
            + snap.rejected_non_finite
            + snap.rejected_missing
            + snap.queue_shed,
        "conservation invariant broken: {snap:?}"
    );
}

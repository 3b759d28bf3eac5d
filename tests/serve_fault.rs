//! Chaos suite for the fault-tolerant serving path.
//!
//! Every test arms a `cts_nn::fault` serving hook (NaN output, plan-exec
//! failure, kill-mid-flush, retry storms) or feeds the batcher hostile
//! inputs (wrong shapes, NaN floods, oversize requests, missing-heavy
//! windows, queue floods), then asserts the three load-bearing
//! guarantees:
//!
//! 1. **No panics** — every failure surfaces as a typed
//!    [`cts_runtime::ServeError`].
//! 2. **Batch isolation** — healthy requests coalesced with a poisoned or
//!    failing one keep answers **bit-identical** to solo runs (for
//!    row-independent plans) or to the same no-fault batch (for
//!    ProbSparse plans, whose query selection is batch-averaged).
//! 3. **Observable degradation** — every shed/quarantine/degrade/retry
//!    event shows up in the `cts_obs::serve` counters the serve bench
//!    writes into `BENCH_serve.json`.

use autocts::{BlockGenotype, DerivedModel, Genotype, SearchConfig};
use cts_autograd::Tape;
use cts_data::{batches_from_windows, build_windows, generate, DatasetSpec};
use cts_nn::{fault, Forecaster};
use cts_obs::serve as counters;
use cts_ops::OpKind;
use cts_runtime::{AdmissionPolicy, ExecPlan, MicroBatcher, PlanRegistry, ServeError};
use cts_tensor::{ops, Tensor};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};
use std::rc::Rc;
use std::sync::Mutex;

/// Serializes the tests: the serve counters are process-global.
static GATE: Mutex<()> = Mutex::new(());

/// Smoke-scale derived model plus its compiled plan and a pool of live
/// test windows (each `[1, N, T, F]`).
///
/// The genotype mixes temporal conv, full attention, and diffusion graph
/// conv — all row-independent ops, so a window's forecast is the same
/// bit pattern whether it runs solo or coalesced. ProbSparse attention
/// (`InformerT`) is deliberately excluded here: its query selection is
/// batch-averaged (see DESIGN.md), so coalescing legitimately changes
/// answers; its isolation guarantee is covered separately by
/// [`prob_sparse_neighbors_match_the_no_fault_batch`].
fn fixture(seed: u64) -> (Rc<DerivedModel>, Rc<ExecPlan>, Vec<Tensor>) {
    fixture_with(seed, OpKind::TransformerT)
}

/// [`fixture`] with a caller-chosen op on the 1→2 edge.
fn fixture_with(seed: u64, mid_op: OpKind) -> (Rc<DerivedModel>, Rc<ExecPlan>, Vec<Tensor>) {
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
    let block = BlockGenotype {
        m: 3,
        edges: vec![(0, 1, OpKind::Gdcc), (1, 2, mid_op), (0, 2, OpKind::Dgcn)],
    };
    let genotype = Genotype {
        blocks: vec![block.clone(); cfg.b],
        backbone: vec![0, 1],
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let model = Rc::new(DerivedModel::new(
        &mut rng,
        &cfg,
        &genotype,
        &spec,
        &data.graph,
        &windows.scaler,
    ));
    let plan = model.compiled_plan().expect("fixture genotype compiles");
    let pool: Vec<Tensor> = batches_from_windows(&windows.test, 1)
        .iter()
        .take(6)
        .map(|(x, _)| x.clone())
        .collect();
    assert!(pool.len() >= 4, "fixture produced too few test windows");
    (model, plan, pool)
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

#[test]
fn nan_output_fault_isolates_the_poisoned_request() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_model, plan, pool) = fixture(0);
    let solos: Vec<Tensor> = pool
        .iter()
        .map(|x| plan.try_run(x).expect("solo reference"))
        .collect();
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), pool.len()).unwrap();
    for x in &pool {
        batcher.submit(x.clone()).unwrap();
    }
    counters::reset();
    fault::arm(fault::FaultPlan {
        nan_output_at_run: Some(0),
        ..fault::FaultPlan::default()
    });
    let out = batcher.flush();
    fault::disarm();
    for (i, (solo, y)) in solos.iter().zip(&out).enumerate() {
        let y = y
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert!(bitwise_eq(y, solo), "request {i} drifted from its solo run");
    }
    let snap = counters::snapshot();
    assert_eq!(snap.poisoned_outputs, 1, "poison not observed");
    assert_eq!(snap.quarantined, 1, "exactly one request quarantines");
    assert_eq!(snap.degraded_solo, 1, "quarantined request recovers solo");
    assert_eq!(snap.failed_requests, 0);
}

#[test]
fn kill_mid_flush_fails_one_group_and_spares_the_rest() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_model, plan, pool) = fixture(1);
    let solos: Vec<Tensor> = pool
        .iter()
        .take(4)
        .map(|x| plan.try_run(x).expect("solo reference"))
        .collect();
    // max_batch 2 over 4 singles → two coalesced groups per flush.
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), 2).unwrap();
    for x in pool.iter().take(4) {
        batcher.submit(x.clone()).unwrap();
    }
    counters::reset();
    // Kill the second group's forward (run index 1) mid-flush.
    fault::arm(fault::FaultPlan {
        fail_plan_run_at: Some(1),
        ..fault::FaultPlan::default()
    });
    let out = batcher.flush();
    fault::disarm();
    assert_eq!(out.len(), 4);
    for (i, (solo, y)) in solos.iter().zip(&out).enumerate() {
        let y = y
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert!(bitwise_eq(y, solo), "request {i} drifted");
    }
    let snap = counters::snapshot();
    assert_eq!(snap.batch_failures, 1, "the killed group is counted");
    assert_eq!(snap.quarantined, 2, "both members of the killed group");
    assert_eq!(snap.degraded_solo, 2);
    assert_eq!(snap.failed_requests, 0);
}

#[test]
fn retry_storm_degrades_to_tape_bitwise_then_to_typed_error() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (model, plan, pool) = fixture(2);
    let reference = tape_forward(&model, &pool[0]);
    let fallback_model = Rc::clone(&model);
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), 4)
        .unwrap()
        .with_retries(1)
        .with_tape_fallback(Box::new(move |x| Some(tape_forward(&fallback_model, x))));
    batcher.submit(pool[0].clone()).unwrap();
    counters::reset();
    // Batch run + solo + one retry all fail → the tape answers, and the
    // tape answer is the model's own forward, bit for bit.
    fault::arm(fault::FaultPlan {
        fail_next_plan_runs: 3,
        ..fault::FaultPlan::default()
    });
    let out = batcher.flush();
    let y = out[0].as_ref().expect("tape rung answers");
    assert!(bitwise_eq(y, &reference), "tape fallback drifted");
    let snap = counters::snapshot();
    assert_eq!(snap.degraded_tape, 1);
    assert_eq!(snap.solo_retries, 1);
    assert_eq!(snap.failed_requests, 0);

    // Without a fallback the same storm ends in a typed error, not a
    // panic.
    let mut bare = MicroBatcher::new(Rc::clone(&plan), 4)
        .unwrap()
        .with_retries(1);
    bare.submit(pool[0].clone()).unwrap();
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
    assert_eq!(counters::snapshot().failed_requests, 1);
}

#[test]
fn oversize_flood_splits_and_never_exceeds_the_cap() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_model, plan, pool) = fixture(3);
    let parts: Vec<&Tensor> = pool.iter().take(5).collect();
    let flood = ops::concat(&parts, 0); // [5, N, T, F] against max_batch 2
    let solo = plan.try_run(&flood).expect("solo reference");
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), 2).unwrap();
    counters::reset();
    batcher.submit(flood.clone()).unwrap();
    batcher.submit(pool[5].clone()).unwrap();
    fault::arm(fault::FaultPlan::default()); // reset the max-rows tracker
    let out = batcher.flush();
    fault::disarm();
    let y = out[0].as_ref().expect("oversize request answers");
    assert!(
        bitwise_eq(y, &solo),
        "split answer drifted from one-shot run"
    );
    assert!(out[1].is_ok());
    assert!(
        fault::max_batch_rows() <= 2,
        "a forward ran {} rows, above the cap of 2",
        fault::max_batch_rows()
    );
    assert_eq!(counters::snapshot().oversize_split, 1);
}

#[test]
fn adversarial_flood_is_all_typed_errors_and_service_survives() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_model, plan, pool) = fixture(4);
    let n = plan.nodes();
    let t = plan.input_len();
    let f = plan.features();
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), 4)
        .unwrap()
        .with_queue_limit(3)
        .unwrap()
        .with_admission(AdmissionPolicy::new(Some(0.0), 0.5).unwrap());
    counters::reset();

    // Wrong rank and wrong dims: rejected at admission.
    assert!(matches!(
        batcher.submit(Tensor::zeros([n, t, f])),
        Err(ServeError::BadShape { .. })
    ));
    assert!(matches!(
        batcher.submit(Tensor::zeros([1, n + 1, t, f])),
        Err(ServeError::BadShape { .. })
    ));
    // All-sentinel window: over the 50% missing cap.
    assert!(matches!(
        batcher.submit(Tensor::zeros([1, n, t, f])),
        Err(ServeError::TooMissing { .. })
    ));
    // NaN flood: masked into the sentinel… and then over the missing cap.
    let nan_flood = Tensor::from_vec(vec![1, n, t, f], vec![f32::NAN; n * t * f]);
    assert!(matches!(
        batcher.submit(nan_flood),
        Err(ServeError::TooMissing { .. })
    ));
    // Queue flood: the bound sheds the overflow.
    for x in pool.iter().take(3) {
        batcher.submit(x.clone()).unwrap();
    }
    assert!(matches!(
        batcher.submit(pool[3].clone()),
        Err(ServeError::QueueFull { limit: 3 })
    ));
    // Expired deadline on the next flush round.
    let out = batcher.flush();
    assert_eq!(out.len(), 3);
    assert!(out.iter().all(|r| r.is_ok()), "healthy requests survived");
    batcher
        .submit_with_deadline(pool[0].clone(), Some(-1.0))
        .unwrap();
    let out = batcher.flush();
    assert!(matches!(out[0], Err(ServeError::DeadlineExpired { .. })));

    // Service is still healthy afterwards.
    batcher.submit(pool[0].clone()).unwrap();
    let out = batcher.flush();
    assert!(out[0].is_ok(), "service did not survive the flood");

    let snap = counters::snapshot();
    assert_eq!(snap.rejected_shape, 2);
    assert_eq!(snap.rejected_missing, 2);
    assert_eq!(snap.queue_shed, 1);
    assert_eq!(snap.deadline_shed, 1);
    assert_eq!(snap.failed_requests, 0);
}

#[test]
fn prob_sparse_neighbors_match_the_no_fault_batch() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // ProbSparse attention selects its active queries from a
    // batch-averaged measurement (DESIGN.md), so coalescing legitimately
    // changes answers and "bit-identical to solo" cannot hold. The
    // isolation guarantee that DOES hold: a fault in one request leaves
    // its coalesced neighbors bit-identical to the same batch run
    // without the fault, and the quarantined request's solo re-run is
    // bit-identical to a plain solo run.
    let (_model, plan, pool) = fixture_with(8, OpKind::InformerT);
    let requests: Vec<Tensor> = pool.iter().take(4).cloned().collect();
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), requests.len()).unwrap();

    // Baseline: the identical batch composition, no fault.
    for x in &requests {
        batcher.submit(x.clone()).unwrap();
    }
    let baseline: Vec<Tensor> = batcher
        .flush()
        .into_iter()
        .map(|r| r.expect("no-fault baseline"))
        .collect();
    let solo0 = plan.try_run(&requests[0]).expect("solo reference");

    for x in &requests {
        batcher.submit(x.clone()).unwrap();
    }
    counters::reset();
    fault::arm(fault::FaultPlan {
        nan_output_at_run: Some(0),
        ..fault::FaultPlan::default()
    });
    let out = batcher.flush();
    fault::disarm();

    // Request 0 (the poisoned slice) recovered through a solo re-run.
    let y0 = out[0].as_ref().expect("poisoned request recovers");
    assert!(
        bitwise_eq(y0, &solo0),
        "quarantined re-run drifted from solo"
    );
    // Its neighbors kept their coalesced answers untouched by the fault.
    for (i, (base, y)) in baseline.iter().zip(&out).enumerate().skip(1) {
        let y = y
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert!(
            bitwise_eq(y, base),
            "neighbor {i} drifted from the no-fault batch"
        );
    }
    let snap = counters::snapshot();
    assert_eq!(snap.quarantined, 1);
    assert_eq!(snap.degraded_solo, 1);
    assert_eq!(snap.failed_requests, 0);
}

#[test]
fn canary_gate_blocks_a_diverging_plan_and_keeps_the_old_one() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (model, plan, pool) = fixture(5);
    let probe = &pool[0];
    let reference = tape_forward(&model, probe);
    let mut registry = PlanRegistry::new();
    counters::reset();
    registry
        .admit("m", Rc::clone(&plan), probe, &reference, 0.0)
        .expect("plan is bit-identical to its own tape");

    // A "new build" whose forecast diverges (different seed → different
    // weights) must be rejected, leaving the admitted plan serving.
    let (_, imposter, _) = fixture(6);
    let err = match registry.admit("m", Rc::clone(&imposter), probe, &reference, 1e-6) {
        Err(e) => e,
        Ok(_) => panic!("diverging plan reached the registry"),
    };
    assert!(matches!(err, ServeError::CanaryRejected { .. }), "{err}");
    assert!(
        Rc::ptr_eq(&registry.get("m").expect("old plan still serves"), &plan),
        "rollback lost the serving plan"
    );
    // A plan whose canary run itself dies is equally rejected.
    fault::arm(fault::FaultPlan {
        fail_plan_run_at: Some(0),
        ..fault::FaultPlan::default()
    });
    assert!(registry
        .admit("m2", Rc::clone(&imposter), probe, &reference, 1e-6)
        .is_err());
    fault::disarm();
    assert!(registry.get("m2").is_none());
    let snap = counters::snapshot();
    assert_eq!(snap.canary_pass, 1);
    assert_eq!(snap.canary_fail, 2);
}

#[test]
fn slow_group_cannot_smuggle_a_later_request_past_its_deadline() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Regression: `flush` used to check deadlines only once, up front
    // (rung 0). A request whose budget expired *while earlier groups in
    // the same flush executed* would still run and return a forecast
    // after its deadline. The fix re-checks `queued.elapsed_ms()`
    // immediately before each group executes.
    let (_model, plan, pool) = fixture(9);
    // max_batch 1 → the two requests form two sequential groups.
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), 1).unwrap();
    batcher.submit(pool[0].clone()).unwrap();
    batcher
        .submit_with_deadline(pool[1].clone(), Some(25.0))
        .unwrap();
    counters::reset();
    // Slow the first group's forward (run 0) by 60 ms: request 1's 25 ms
    // budget expires while request 0 executes, after rung 0 passed it.
    fault::arm(fault::FaultPlan {
        slow_plan_run_at: Some((0, 60)),
        ..fault::FaultPlan::default()
    });
    let out = batcher.flush();
    fault::disarm();
    assert!(out[0].is_ok(), "the slow request itself still answers");
    assert!(
        matches!(
            out[1],
            Err(ServeError::DeadlineExpired { waited_ms, deadline_ms })
                if waited_ms > deadline_ms
        ),
        "request behind the slow group returned {:?} after its deadline",
        out[1].as_ref().map(|_| "a forecast")
    );
    assert_eq!(counters::snapshot().deadline_shed, 1);
}

#[test]
fn packer_scans_past_a_non_fitting_request_instead_of_stranding_later_ones() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Regression: the greedy packer only coalesced *consecutive*
    // requests, so sizes [2, 3, 2] under max_batch 4 closed the first
    // group at {r0} (2+3 > 4) and ran three singleton groups. Skip-ahead
    // packing scans past r1 and packs {r0, r2} (4 rows), then {r1} —
    // two forwards instead of three, with answers still written in
    // submission order.
    let (_model, plan, pool) = fixture(10);
    let two_a = ops::concat(&[&pool[0], &pool[1]], 0);
    let three = ops::concat(&[&pool[2], &pool[3], &pool[4]], 0);
    let two_b = ops::concat(&[&pool[5], &pool[0]], 0);
    let requests = [two_a, three, two_b];
    let solos: Vec<Tensor> = requests
        .iter()
        .map(|x| plan.try_run(x).expect("solo reference"))
        .collect();
    let mut batcher = MicroBatcher::new(Rc::clone(&plan), 4).unwrap();
    for x in &requests {
        batcher.submit(x.clone()).unwrap();
    }
    fault::arm(fault::FaultPlan::default()); // reset the run counter
    let out = batcher.flush();
    let runs = fault::plan_runs();
    let max_rows = fault::max_batch_rows();
    fault::disarm();
    assert_eq!(
        runs, 2,
        "sizes [2, 3, 2] under cap 4 must pack into two forwards, ran {runs}"
    );
    assert!(
        max_rows <= 4,
        "a forward ran {max_rows} rows, above the cap"
    );
    for (i, (solo, y)) in solos.iter().zip(&out).enumerate() {
        let y = y
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert!(
            bitwise_eq(y, solo),
            "request {i} drifted under skip-ahead packing"
        );
    }
}

/// Forward count of the pre-fix packer: greedy *consecutive* coalescing
/// (close the group as soon as the next request does not fit), oversize
/// requests split into `ceil(b / cap)` sub-batches. The skip-ahead packer
/// must never run more forwards than this on any request sequence.
fn consecutive_runs(sizes: &[usize], cap: usize) -> u64 {
    let mut runs = 0u64;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] > cap {
            runs += sizes[i].div_ceil(cap) as u64;
            i += 1;
            continue;
        }
        let mut total = sizes[i];
        i += 1;
        while i < sizes.len() && total + sizes[i] <= cap {
            total += sizes[i];
            i += 1;
        }
        runs += 1;
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Packing invariants under randomized request sizes, caps, and an
    /// optional injected first-run failure: submission order is
    /// preserved, no executed forward exceeds `max_batch`, and every
    /// answer — through the coalesced path or the quarantine ladder — is
    /// bit-identical to a solo run.
    fn batcher_packing_invariants(
        len in 1usize..6,
        raw_sizes in collection::vec(1usize..4, 6),
        max_batch in 1usize..5,
        fail_first in proptest::bool::ANY,
    ) {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let (_model, plan, pool) = fixture(7);
        let sizes = &raw_sizes[..len];
        let requests: Vec<Tensor> = sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let parts: Vec<&Tensor> =
                    (0..b).map(|k| &pool[(i + k) % pool.len()]).collect();
                ops::concat(&parts, 0)
            })
            .collect();
        let solos: Vec<Tensor> = requests
            .iter()
            .map(|x| plan.try_run(x).expect("solo reference"))
            .collect();
        let mut batcher = MicroBatcher::new(Rc::clone(&plan), max_batch).unwrap();
        for x in &requests {
            batcher.submit(x.clone()).unwrap();
        }
        // Arm resets the max-rows tracker; optionally kill the first
        // forward to push everything through the quarantine ladder.
        fault::arm(fault::FaultPlan {
            fail_plan_run_at: if fail_first { Some(0) } else { None },
            ..fault::FaultPlan::default()
        });
        let out = batcher.flush();
        let max_rows = fault::max_batch_rows();
        let runs = fault::plan_runs();
        fault::disarm();
        prop_assert_eq!(out.len(), requests.len());
        prop_assert!(
            max_rows <= max_batch,
            "a forward ran {} rows, above the cap of {}",
            max_rows,
            max_batch
        );
        // Skip-ahead packing never runs more forwards than the old
        // consecutive-only packer would have (brute-force-verified over
        // this whole input domain). Only meaningful fault-free: a failed
        // first run adds quarantine solos to the count.
        if !fail_first {
            let bound = consecutive_runs(sizes, max_batch);
            prop_assert!(
                runs <= bound,
                "skip-ahead packed {} forwards, consecutive packing needs only {}",
                runs,
                bound
            );
        }
        for (i, (solo, y)) in solos.iter().zip(&out).enumerate() {
            let y = y.as_ref().unwrap_or_else(|e| panic!("request {i} failed: {e}"));
            prop_assert!(bitwise_eq(y, solo), "request {} drifted", i);
        }
    }
}

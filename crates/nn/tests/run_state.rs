//! Property tests of the `CTSCKPT2` run-state format: random run states
//! round-trip bit-exactly, streams in the retired v1 layout are rejected
//! with a typed error, and every strict prefix of a valid file is
//! rejected as corrupt.

use cts_autograd::Parameter;
use cts_nn::checkpoint::{
    load_parameters, read_checkpoint, read_run_state, write_run_state, CheckpointError,
    MidEpochState, OptimizerState, RunCounters, RunState, ScheduleState,
};
use cts_tensor::Tensor;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::io::Cursor;

fn arb_tensor(rng: &mut SmallRng) -> Tensor {
    let rank = rng.gen_range(0usize..=3);
    let shape: Vec<usize> = (0..rank).map(|_| rng.gen_range(1usize..=4)).collect();
    let numel = shape.iter().product::<usize>().max(1);
    let data: Vec<f32> = (0..numel).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
    Tensor::from_vec(shape, data)
}

fn arb_optimizer(rng: &mut SmallRng, name: &str) -> OptimizerState {
    let buffers = rng.gen_range(0usize..=3);
    OptimizerState {
        name: name.to_string(),
        t: rng.gen_range(0u64..1_000_000),
        lr: rng.gen_range(1e-6f32..1.0),
        m: (0..buffers).map(|_| arb_tensor(rng)).collect(),
        v: (0..buffers).map(|_| arb_tensor(rng)).collect(),
    }
}

/// A random but fully-valid run state, deterministic in `seed`.
fn arb_run_state(seed: u64) -> RunState {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_params = rng.gen_range(0usize..=4);
    let params: Vec<(String, Tensor)> = (0..n_params)
        .map(|i| (format!("layer{i}.weight"), arb_tensor(&mut rng)))
        .collect();
    let n_opts = rng.gen_range(0usize..=2);
    let optimizers = (0..n_opts)
        .map(|i| arb_optimizer(&mut rng, if i == 0 { "arch" } else { "weight" }))
        .collect();
    let schedule = if rng.gen_range(0u32..2) == 1 {
        Some(ScheduleState {
            tau: rng.gen_range(1e-3f32..10.0),
            factor: rng.gen_range(0.1f32..1.0),
            min: rng.gen_range(1e-4f32..1e-2),
        })
    } else {
        None
    };
    let rng_state = if rng.gen_range(0u32..2) == 1 {
        let word = |rng: &mut SmallRng| rng.gen_range(0u64..u64::MAX);
        Some([word(&mut rng), word(&mut rng), word(&mut rng), 1u64]) // never all-zero
    } else {
        None
    };
    let n_trace = rng.gen_range(0usize..=3);
    let trace = (0..n_trace)
        .map(|_| {
            [
                rng.gen_range(0.0f32..5.0),
                rng.gen_range(0.0f32..5.0),
                rng.gen_range(0.0f32..5.0),
            ]
        })
        .collect();
    let losses = |rng: &mut SmallRng| {
        let n = rng.gen_range(0usize..=4);
        (0..n)
            .map(|_| rng.gen_range(0.0f32..100.0))
            .collect::<Vec<f32>>()
    };
    RunState {
        params,
        optimizers,
        schedule,
        counters: RunCounters {
            epoch: rng.gen_range(0u64..100),
            step: rng.gen_range(0u64..10_000),
            best_epoch: rng.gen_range(0u64..100),
            stall: rng.gen_range(0u64..10),
            memory_scalars: rng.gen_range(0u64..1_000_000),
            best_val: rng.gen_range(0.0f32..100.0),
            last_val: rng.gen_range(0.0f32..100.0),
            secs: rng.gen_range(0.0f64..1e6),
        },
        rng: rng_state,
        trace,
        train_losses: losses(&mut rng),
        val_losses: losses(&mut rng),
        mid_epoch: if rng.gen_range(0u32..2) == 1 {
            Some(MidEpochState {
                batch: rng.gen_range(0u64..1_000),
                loss_sum: rng.gen_range(0.0f64..1e4),
            })
        } else {
            None
        },
    }
}

fn encode(rs: &RunState) -> Vec<u8> {
    let mut buf = Vec::new();
    write_run_state(&mut buf, rs).unwrap();
    buf
}

/// Magic of the retired v1 layout.
const V1_MAGIC: &[u8; 8] = b"CTSCKPT1";

/// Bytes in the retired v1 layout: [`V1_MAGIC`], `u32` parameter count,
/// then per parameter `u32` name length + name, `u32` rank, `u64` dims
/// and `f32` data.
fn v1_bytes(params: &[(String, Tensor)]) -> Vec<u8> {
    let mut buf = V1_MAGIC.to_vec();
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for (name, t) in params {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(t.rank() as u32).to_le_bytes());
        for &d in t.shape() {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &x in t.data() {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    buf
}

/// v1-prefixed streams — well-formed ones and the hostile headers the
/// old v1 reader had to survive — fail through the "bad checkpoint magic"
/// typed error on every read path, never a panic or a load.
#[test]
fn v1_checkpoints_are_rejected_with_typed_error() {
    let mut inputs: Vec<Vec<u8>> = (0..8)
        .map(|seed| v1_bytes(&arb_run_state(seed).params))
        .collect();
    // Claims 2^32-1 parameters and a giant tensor on a tiny stream.
    let mut huge = V1_MAGIC.to_vec();
    huge.extend_from_slice(&u32::MAX.to_le_bytes());
    huge.extend_from_slice(&8u32.to_le_bytes());
    huge.extend_from_slice(b"evilname");
    huge.extend_from_slice(&1u32.to_le_bytes());
    huge.extend_from_slice(&(u64::MAX / 8).to_le_bytes());
    inputs.push(huge);
    // Oversized name length.
    let mut long_name = V1_MAGIC.to_vec();
    long_name.extend_from_slice(&1u32.to_le_bytes());
    long_name.extend_from_slice(&u32::MAX.to_le_bytes());
    inputs.push(long_name);
    // Rank beyond any cap.
    let mut deep = V1_MAGIC.to_vec();
    deep.extend_from_slice(&1u32.to_le_bytes());
    deep.extend_from_slice(&1u32.to_le_bytes());
    deep.push(b'x');
    deep.extend_from_slice(&1000u32.to_le_bytes());
    inputs.push(deep);
    // The bare magic.
    inputs.push(V1_MAGIC.to_vec());

    let dir = std::env::temp_dir().join(format!("cts_v1_rejected_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("legacy.ckpt");
    let target = vec![Parameter::new("layer0.weight", Tensor::zeros([1]))];
    for (i, bytes) in inputs.iter().enumerate() {
        match read_run_state(Cursor::new(bytes)) {
            Err(CheckpointError::Corrupt(m)) => {
                assert!(m.contains("bad checkpoint magic"), "input {i}: {m}")
            }
            other => panic!("input {i}: read_run_state returned {other:?}"),
        }
        let err = read_checkpoint(Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "input {i}");
        assert!(
            err.to_string().contains("bad checkpoint magic"),
            "input {i}: {err}"
        );
        std::fs::write(&path, bytes).unwrap();
        let err = load_parameters(&path, &target).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "input {i}");
        assert!(
            err.to_string().contains("bad checkpoint magic"),
            "input {i}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A legacy/hand-edited checkpoint carrying a τ below the schedule floor
/// must resume clamped to the floor, not below it — resuming below would
/// diverge from the trace a fresh run produces ([`cts_nn::TemperatureSchedule::step`]
/// never yields τ < min, so no legitimate checkpoint goes under).
#[test]
fn restoring_schedule_below_floor_clamps_to_floor() {
    let below_floor = ScheduleState {
        tau: 1e-6,
        factor: 0.9,
        min: 1e-3,
    };
    let mut sched = cts_nn::TemperatureSchedule::new(5.0, below_floor.factor, below_floor.min);
    sched.restore(below_floor.tau);
    assert_eq!(
        sched.tau(),
        below_floor.min,
        "resume must clamp up to the floor"
    );
    // Annealing from the clamped state stays at the floor, exactly like a
    // fresh schedule that reached it.
    sched.step();
    assert_eq!(sched.tau(), below_floor.min);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn v2_round_trips_bit_exactly(seed in 0u64..1_000_000) {
        let rs = arb_run_state(seed);
        let bytes = encode(&rs);
        let back = read_run_state(Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(back, rs);
    }

    fn every_truncation_is_rejected(seed in 0u64..1_000_000) {
        let rs = arb_run_state(seed);
        let bytes = encode(&rs);
        // Every strict prefix must fail typed — never load, never panic,
        // never allocate absurdly. Chunk boundaries are included since
        // every byte offset is.
        for len in 0..bytes.len() {
            prop_assert!(
                read_run_state(Cursor::new(&bytes[..len])).is_err(),
                "prefix of {len}/{} bytes was accepted",
                bytes.len()
            );
        }
    }

    fn trailing_garbage_is_rejected(seed in 0u64..1_000_000, extra in 1usize..16) {
        let rs = arb_run_state(seed);
        let mut bytes = encode(&rs);
        bytes.extend(std::iter::repeat_n(0xABu8, extra));
        prop_assert!(read_run_state(Cursor::new(&bytes)).is_err());
    }
}

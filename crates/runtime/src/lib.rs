//! `cts-runtime`: compiled, tape-free inference plans for derived models.
//!
//! The tape (`cts-autograd`) exists to record a backward pass; at inference
//! time it is pure overhead — every forward allocates `Rc` nodes, clones
//! parameter tensors onto the tape, and rebuilds the graph from scratch.
//! This crate compiles a derived architecture once into an [`ExecPlan`]: a
//! topologically ordered flat list of op records over a workspace of
//! `[B, N, T, D]` slots (every operator maps that shape to itself), then
//! executed as a plain loop that calls the tensor kernels directly. After [`ExecPlan::prewarm`], a steady-state
//! forward performs **zero** heap allocations (all buffers cycle through the
//! tensor arena) and is bit-identical to the tape forward by construction:
//! every layer and operator has one forward, generic over a
//! `cts_nn::Backend`, and the plan runs it on the tape-free `cts_nn::Eval`
//! backend, reading weights in place so retraining updates flow through
//! without recompilation.
//!
//! On top of the plan sit the serving pieces: a [`PlanRegistry`] keyed by
//! model id (with a canary gate that parity-checks new plans against a
//! tape reference before admission) and a [`MicroBatcher`] that coalesces
//! concurrent sensor streams into one batched forward behind admission
//! control, bounded queues, and a degradation ladder. [`ServeFront`]
//! scales that to many threads: sharded worker threads each compile their
//! own plan replicas (plans are `Rc`-based and `!Send`; only request
//! envelopes cross channels), route requests content-deterministically,
//! and answer repeats bit-identically from a per-model [`ForecastCache`]
//! with a horizon-aware TTL. The whole request path is panic-free: every
//! failure is a typed [`ServeError`], and every shed/quarantine/degrade/
//! cache event is counted through `cts-obs`.
//!
//! This crate deliberately does **not** depend on `cts-autograd`; the lint
//! suite rejects any `Tape` import here so the tape-free property is
//! structural, not aspirational.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod batcher;
mod cache;
mod error;
mod front;
mod plan;
mod registry;

pub use admission::{AdmissionPolicy, AdmissionReport};
pub use batcher::{MicroBatcher, TapeFallback};
pub use cache::{CacheKey, ForecastCache};
pub use error::ServeError;
pub use front::{FrontConfig, ServeFront, ShardCanary, ShardFactory, ShardModel, TicketAnswer};
pub use plan::{project, BlockPlan, ExecPlan, PlanError, PlanSpec};
pub use registry::PlanRegistry;

#[cfg(test)]
pub(crate) mod testlock {
    //! The serve counters are process-global; unit tests in this crate
    //! run in parallel threads of one binary, so every test that resets
    //! or asserts counter values serializes through this gate.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static COUNTER_GATE: Mutex<()> = Mutex::new(());

    pub fn counters() -> MutexGuard<'static, ()> {
        COUNTER_GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

//! `cts-tensor`: a small, dependency-light dense tensor library used as the
//! numeric substrate for the AutoCTS reproduction.
//!
//! Tensors are row-major, contiguous, `f32`. Every differentiable operation
//! exposed by [`ops`] comes with analytic gradient functions so that the
//! autograd layer (`cts-autograd`) can stay a thin bookkeeping shim.
//!
//! The canonical activation layout throughout the workspace is
//! `[B, N, T, D]` — batch, node (time series), time step, channel.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the persistent worker pool (`pool`) and the
// SIMD microkernels (`simd`) are the only modules allowed to opt back in
// (lifetime-erased task pointers; `core::arch` intrinsics), each use
// carrying a `// SAFETY:` proof checked by scripts/lint_forbidden.sh rules
// 2 and 8.
#![deny(unsafe_code)]

mod pool;
mod shape;
mod tensor;

pub mod arena;
pub mod init;
pub mod meter;
pub mod metrics;
pub mod ops;
pub mod parallel;
pub mod simd;

pub use shape::{broadcast_shapes, strides_for, Shape};
pub use tensor::Tensor;

/// Numerical tolerance used by tests and gradient checks across the workspace.
pub const TEST_EPS: f32 = 1e-4;

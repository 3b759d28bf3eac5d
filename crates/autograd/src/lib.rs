//! `cts-autograd`: define-by-run reverse-mode automatic differentiation on
//! top of [`cts_tensor`].
//!
//! A [`Tape`] records every operation of one forward pass as a node in a
//! topologically ordered arena; [`Tape::backward`] walks the arena in reverse
//! and accumulates gradients, computing only those some parameter depends
//! on. Model weights live *outside* the tape as [`Parameter`]s (shared,
//! reference-counted), so a fresh tape per training step costs only the
//! activations — exactly what the bi-level optimisation of AutoCTS needs,
//! where two disjoint parameter sets (architecture `Θ` and network weights
//! `w`) are updated by two different optimisers, each pass computing only
//! its own set's gradients through [`Tape::backward_for`].
//!
//! ```
//! use cts_autograd::{Parameter, Tape};
//! use cts_tensor::Tensor;
//!
//! let w = Parameter::new("w", Tensor::from_vec([2, 1], vec![1.0, -1.0]));
//! let tape = Tape::new();
//! let x = tape.constant(Tensor::from_vec([1, 2], vec![3.0, 5.0]));
//! let y = x.matmul(&tape.param(&w)); // [1,1] = 3 - 5 = -2
//! let loss = y.square().mean_all();
//! tape.backward(&loss);
//! assert_eq!(y.value().item(), -2.0);
//! assert_eq!(w.grad().data(), &[-12.0, -20.0]); // 2*(-2)*x
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod op;
mod parameter;
mod tape;
mod var;

pub mod gradcheck;

pub use op::{Grads, GradsIter, Op};
pub use parameter::Parameter;
pub use tape::Tape;
pub use var::Var;
